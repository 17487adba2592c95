"""Bit-exact round trips of the field file formats."""

import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sigmalab.fieldio import _columns, load_field, save_field


def cases():
    r = np.random.default_rng(0)
    return [
        ("scalar", r.standard_normal((6, 5))),
        ("map", r.standard_normal((6, 5, 3))),
        ("vectorspinor", r.standard_normal((6, 5, 3, 4))),
        ("gravitino", r.standard_normal((6, 5, 2, 4))),
        ("map", r.standard_normal((20, 17, 3))),   # 340 rows: more than one CSV block
    ]


@pytest.mark.parametrize("ext", [".csv", ".json"])
def test_round_trip_bit_exact(tmp_path, ext):
    for kind, array in cases():
        path = tmp_path / f"field_{kind}{ext}"
        save_field(path, array, kind)
        back, back_kind = load_field(path)
        assert back_kind == kind
        assert back.shape == array.shape
        assert np.array_equal(back, array)


def test_header_carries_metadata(tmp_path):
    _, array = cases()[1]
    path = tmp_path / "phi.csv"
    save_field(path, array, "map")
    first = path.read_text().splitlines()[0]
    assert first == "# sigmalab-field kind=map n1=6 n2=5 K=3"


def test_bad_files_rejected(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("no header\n1,2,3\n")
    with pytest.raises(ValueError):
        load_field(p)
    q = tmp_path / "x.txt"
    with pytest.raises(ValueError):
        save_field(q, np.zeros((4, 4)), "scalar")
    with pytest.raises(ValueError):
        save_field(tmp_path / "y.csv", np.zeros((4, 4, 3)), "scalar")

    # truncated files name what is missing
    header = "# sigmalab-field kind=scalar n1=1 n2=1 K=1\n"
    p.write_text(header)
    with pytest.raises(ValueError, match="column"):
        load_field(p)
    p.write_text("# sigmalab-field n1=1 n2=1 K=1\nvalue\n1.0\n")
    with pytest.raises(ValueError, match="kind"):
        load_field(p)
    p.write_text("# sigmalab-field kind=scalar n2=1 K=1\nvalue\n1.0\n")
    with pytest.raises(ValueError, match="n1"):
        load_field(p)
    j = tmp_path / "x.json"
    j.write_text(json.dumps({"format": "sigmalab-field", "kind": "scalar",
                             "n1": 1, "n2": 1, "K": 1}))
    with pytest.raises(ValueError, match="data"):
        load_field(j)
    j.write_text("[]")
    with pytest.raises(ValueError, match="not a sigmalab-field"):
        load_field(j)

    # metadata and data of the wrong type name the offending key
    good = {"format": "sigmalab-field", "kind": "map", "n1": 1, "n2": 2, "K": 3,
            "data": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]}
    for key, value in [("data", 5), ("data", [0.0, 0.0, 1.0]), ("data", [[0.0, 1.0]] * 2),
                       ("data", [[0.0, 0.0, 1.0]] * 3), ("data", {"a": 1}),
                       ("data", [["x", 0.0, 1.0]] * 2), ("n1", None), ("n1", 1.5),
                       ("n1", 1.0), ("n1", True), ("n1", -1), ("n1", "1"), ("K", None),
                       ("kind", 3), ("kind", ["map"]), ("kind", "tensor")]:
        j.write_text(json.dumps({**good, key: value}))
        with pytest.raises(ValueError, match=key):
            load_field(j)
    for meta in ["kind=map n1=1.5 n2=2 K=3", "kind=map n1=x n2=2 K=3",
                 "kind=map n1=1 n2=-2 K=3", "kind=map n1=1 n2=2 K="]:
        p.write_text(f"# sigmalab-field {meta}\nu1,u2,u3\n0,0,1\n1,0,0\n")
        with pytest.raises(ValueError, match="n1|n2|K"):
            load_field(p)
    p.write_text("# sigmalab-field kind=map n1=1 n2=2 K=3\nu1,u2,u3\n0,0\n1,0\n")
    with pytest.raises(ValueError, match="data"):
        load_field(p)
    j.write_text(json.dumps(good))
    assert load_field(j)[0].shape == (1, 2, 3)


def test_oversized_csv_cell_rejected(tmp_path):
    # the csv module refuses cells longer than its field size limit (131072)
    p = tmp_path / "u.csv"
    p.write_text("# sigmalab-field kind=scalar n1=1 n2=1 K=1\nvalue\n" + "1" * 140_000 + "\n")
    with pytest.raises(ValueError, match="u.csv"):
        load_field(p)


def test_row_major_site_order(tmp_path):
    array = np.arange(24, dtype=float).reshape(4, 6)
    path = tmp_path / "s.csv"
    save_field(path, array, "scalar")
    lines = path.read_text().splitlines()
    # data starts on line 3; site (i, j) -> row i * n2 + j
    assert lines[2] == "0.0"
    assert lines[2 + 6] == "6.0"


_SHAPES = {"scalar": (3, 2), "map": (3, 2, 3), "vectorspinor": (2, 2, 3, 4),
           "gravitino": (2, 2, 2, 4)}


@st.composite
def _fields(draw):
    kind = draw(st.sampled_from(sorted(_SHAPES)))
    values = st.floats(allow_nan=False) | st.sampled_from([-0.0, np.inf, -np.inf])
    return kind, draw(arrays(np.float64, _SHAPES[kind], elements=values))


@settings(max_examples=60, deadline=None)
@given(field=_fields(), ext=st.sampled_from([".csv", ".json"]))
def test_round_trip_bit_exact_property(field, ext):
    kind, array = field
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"field{ext}"
        save_field(path, array, kind)
        back, back_kind = load_field(path)
    assert back_kind == kind
    assert back.shape == array.shape
    assert np.array_equal(back.view(np.uint64), array.view(np.uint64))


def test_edge_floats_are_written_with_repr(tmp_path):
    values = np.array([[-0.0, np.inf, -np.inf, np.nan], [5e-324, 1e16, 1e-5, 0.1]])
    flat = values.reshape(-1)
    save_field(tmp_path / "f.csv", values, "scalar")
    rows = (tmp_path / "f.csv").read_text().splitlines()[2:]
    assert rows == [repr(float(v)) for v in flat]
    save_field(tmp_path / "f.json", values, "scalar")
    payload = json.loads((tmp_path / "f.json").read_text())
    assert [repr(v) for row in payload["data"] for v in row] == [repr(float(v)) for v in flat]


@pytest.mark.parametrize("kind, site, K", [("scalar", (), 1), ("map", (3,), 3),
                                           ("vectorspinor", (3, 4), 3), ("gravitino", (2, 4), 0)])
def test_csv_bytes_equal_csv_writer_output(tmp_path, kind, site, K):
    # 340 rows (more than one block), led by edge values, against csv.writer's own rows
    array = np.random.default_rng(5).standard_normal((20, 17) + site)
    edge = [-0.0, 5e-324, 1e308, 1.0 / 3.0, -1e-308, np.inf, -np.inf, np.nan, 0.0, 1e16]
    array.reshape(-1)[:len(edge)] = edge
    save_field(tmp_path / "f.csv", array, kind)
    expected = io.StringIO(newline="")
    expected.write(f"# sigmalab-field kind={kind} n1=20 n2=17 K={K}\n")
    writer = csv.writer(expected)
    writer.writerow(_columns(kind, K))
    writer.writerows(array.reshape(340, -1).tolist())
    assert (tmp_path / "f.csv").read_bytes() == expected.getvalue().encode()


def test_integer_beyond_float64_rejected(tmp_path):
    j = tmp_path / "big.json"
    j.write_text(json.dumps({"format": "sigmalab-field", "kind": "scalar", "n1": 1, "n2": 1,
                             "K": 1, "data": [[10**400]]}))
    with pytest.raises(ValueError, match="big.json"):
        load_field(j)


def test_deeply_nested_json_rejected(tmp_path):
    j = tmp_path / "deep.json"
    j.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="deep.json"):
        load_field(j)


def test_huge_column_count_rejected_without_building_it(tmp_path):
    # K = 10**7 promises 10**7 columns; checking the row width must not list them
    import tracemalloc

    p = tmp_path / "wide.csv"
    p.write_text("# sigmalab-field kind=map n1=1 n2=1 K=10000000\nu1\n1.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="columns"):
            load_field(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
