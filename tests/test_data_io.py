import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from scanpath.core import GazePoint, GridSpec, Scanpath, group_by_image
from scanpath.data_io import (
    Checkpoint,
    Dataset,
    ImageRecord,
    load_scanpath_dataset,
    preprocess,
    read_checkpoint,
    read_feature_tensor,
    read_pgm,
    save_scanpath_csv,
    synth_dataset,
    write_checkpoint,
    write_feature_tensor,
    write_pgm,
)
from scanpath.errors import DataError, FormatError, ParameterError


def test_csv_empty_with_header(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("image_id,observer_id,fix_index,x,y\n")
    ds = load_scanpath_dataset(f)
    assert ds.scanpaths == []
    assert ds.images == []


def test_csv_single_row(tmp_path):
    f = tmp_path / "one.csv"
    f.write_text("image_id,observer_id,fix_index,x,y\nimg0,obs0,0,3.5,7.25\n")
    ds = load_scanpath_dataset(f)
    assert len(ds.scanpaths) == 1
    s = ds.scanpaths[0]
    assert s.n == 1
    assert (s.points[0].x, s.points[0].y) == (3.5, 7.25)
    assert ds.images[0].width == 4 and ds.images[0].height == 8


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    paths = []
    for i in range(3):
        for o in range(2):
            pts = tuple(
                GazePoint(float(rng.uniform(0, 64)), float(rng.uniform(0, 48)), k)
                for k in range(int(rng.integers(1, 9)))
            )
            paths.append(Scanpath(pts, f"img{i}", f"obs{o}"))
    f = tmp_path / "ds.csv"
    save_scanpath_csv(paths, f)
    ds = load_scanpath_dataset(f)
    assert len(ds.scanpaths) == len(paths)
    for a, b in zip(paths, ds.scanpaths):
        assert a.image_id == b.image_id and a.observer_id == b.observer_id
        assert np.array_equal(a.coords(), b.coords())
    # writing the parsed dataset again reproduces the same bytes
    f2 = tmp_path / "ds2.csv"
    save_scanpath_csv(ds.scanpaths, f2)
    assert f.read_bytes() == f2.read_bytes()


def test_csv_malformed_rows(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("image_id,observer_id,fix_index,x,y\nimg,obs,0,1.0\n")
    with pytest.raises(FormatError, match=":2:"):
        load_scanpath_dataset(f)

    f.write_text("image_id,observer_id,fix_index,x,y\nimg,obs,0,1.0,2.0\nimg,obs,2,1.0,2.0\n")
    with pytest.raises(FormatError, match=":3:"):
        load_scanpath_dataset(f)

    f.write_text("image_id,observer_id,fix_index,x,y\nimg,obs,1,1.0,2.0\n")
    with pytest.raises(FormatError):
        load_scanpath_dataset(f)

    f.write_text("wrong,header\n")
    with pytest.raises(FormatError):
        load_scanpath_dataset(f)

    f.write_bytes(b"image_id,observer_id,fix_index,x,y\nimg\xff,obs,0,1.0,2.0\n")
    with pytest.raises(FormatError, match="UTF-8"):
        load_scanpath_dataset(f)


@pytest.mark.parametrize("bad", ["a,b", "a\nb", "a\rb", "a\u2028b", " a", "a\t"])
def test_csv_writer_rejects_ids_it_cannot_read_back(tmp_path, bad):
    for ids in ((bad, "obs"), ("img", bad)):
        with pytest.raises(ParameterError):
            save_scanpath_csv([Scanpath((GazePoint(1.0, 2.0, 0),), *ids)], tmp_path / "s.csv")
    assert not (tmp_path / "s.csv").exists()


def test_csv_unknown_image_id(tmp_path):
    f = tmp_path / "ds.csv"
    f.write_text("image_id,observer_id,fix_index,x,y\nmissing,obs,0,1.0,2.0\n")
    with pytest.raises(DataError, match="missing"):
        load_scanpath_dataset(f, images_dir=tmp_path)


def make_dataset(lengths, width=64, height=48):
    paths = []
    rng = np.random.default_rng(1)
    for i, n in enumerate(lengths):
        pts = tuple(
            GazePoint(float(rng.uniform(0, width)), float(rng.uniform(0, height)), k)
            for k in range(n)
        )
        paths.append(Scanpath(pts, "img0", f"obs{i}"))
    return Dataset(images=[ImageRecord("img0", width, height, None)], scanpaths=paths)


def test_preprocess_filters_truncates_pads():
    grid = GridSpec(32, 32)
    ds = make_dataset([3, 12, 5])
    prepared = preprocess(ds, grid, n_fix=8, sigma=2.0)
    assert len(prepared) == 1
    ex = prepared[0]
    # the length-3 scanpath is discarded
    assert len(ex.scanpaths) == 2
    for s in ex.scanpaths:
        assert s.n == 8
        for p in s.points:
            assert 0 <= p.x < 32 and 0 <= p.y < 32
    # the length-5 path got its last fixation repeated 3 times
    padded = ex.scanpaths[1]
    assert padded.points[4].x == padded.points[5].x == padded.points[7].x
    assert [p.index for p in padded.points] == list(range(8))
    # the length-12 path keeps its first 8 fixations (rescaled)
    src = ds.scanpaths[1]
    kept = ex.scanpaths[0]
    assert np.allclose(kept.coords(), src.coords()[:8] * np.array([32 / 64, 32 / 48]), atol=1e-9)
    assert len(ex.spatialized) == 2
    assert ex.spatialized[0].n == 8


def test_preprocess_excludes_empty_images():
    grid = GridSpec(32, 32)
    ds = make_dataset([2, 3])
    with pytest.warns(UserWarning):
        prepared = preprocess(ds, grid, n_fix=8, sigma=2.0)
    assert prepared == []


def test_synth_single_roi_zero_noise():
    grid = GridSpec(32, 32)
    ds = synth_dataset(1, 3, 1, grid, np.random.default_rng(2), noise_frac=0.0)
    assert len(ds.scanpaths) == 3
    for s in ds.scanpaths:
        assert s.n == 8
        first = s.points[0]
        assert (first.x, first.y) == grid.center
        tail = {(p.x, p.y) for p in s.points[1:]}
        assert len(tail) == 1  # every later fixation sits exactly on the ROI center


def test_synth_reproducible():
    grid = GridSpec(32, 32)
    a = synth_dataset(2, 3, 2, grid, np.random.default_rng(7))
    b = synth_dataset(2, 3, 2, grid, np.random.default_rng(7))
    assert len(a.scanpaths) == len(b.scanpaths)
    for s, t in zip(a.scanpaths, b.scanpaths):
        assert np.array_equal(s.coords(), t.coords())
    for ia, ib in zip(a.images, b.images):
        assert np.array_equal(ia.pixels, ib.pixels)


def test_synth_center_start_and_spread_trend():
    grid = GridSpec(32, 32)
    ds = synth_dataset(10, 15, 2, grid, np.random.default_rng(5))
    assert len(ds.scanpaths) == 150
    by_img = group_by_image(ds.scanpaths)
    step0 = np.array([s.coords()[0] for paths in by_img.values() for s in paths])
    cx, cy = grid.center
    assert abs(step0[:, 0].mean() - cx) < 2.0
    assert abs(step0[:, 1].mean() - cy) < 2.0

    spreads = np.zeros(8)
    for paths in by_img.values():
        arr = np.stack([s.coords() for s in paths])
        spreads += np.sqrt(arr[:, :, 0].var(axis=0) + arr[:, :, 1].var(axis=0))
    spreads /= len(by_img)
    assert all(spreads[0] < spreads[i] for i in range(1, 8))
    assert np.polyfit(np.arange(8), spreads, 1)[0] > 0


def test_feature_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((16, 32, 32))
    f = tmp_path / "t.ftns"
    write_feature_tensor(f, arr)
    back = read_feature_tensor(f)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)
    # byte-identical re-serialization
    f2 = tmp_path / "t2.ftns"
    write_feature_tensor(f2, back)
    assert f.read_bytes() == f2.read_bytes()


def test_feature_tensor_format_errors(tmp_path):
    f = tmp_path / "bad.ftns"
    f.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        read_feature_tensor(f)

    f.write_bytes(b"FTNS" + struct.pack("<I", 0))
    with pytest.raises(FormatError, match="zero-dimensional"):
        read_feature_tensor(f)

    f.write_bytes(b"FTNS" + struct.pack("<II", 1, 4) + b"\x00" * 8)  # 4 values promised, 1 given
    with pytest.raises(FormatError, match="payload"):
        read_feature_tensor(f)

    # four dims of 65536 hold 2**64 values, which a fixed-width product wraps to 0
    f.write_bytes(b"FTNS" + struct.pack("<5I", 4, *[65536] * 4))
    with pytest.raises(FormatError, match="payload"):
        read_feature_tensor(f)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, size=(12, 9), dtype=np.uint8)
    f = tmp_path / "img.pgm"
    write_pgm(f, img)
    assert np.array_equal(read_pgm(f), img)
    f.write_bytes(b"P6 1 1 255 xxx")
    with pytest.raises(FormatError):
        read_pgm(f)
    for header in (b"P5 -2 -2 255\n", b"P5 0 3 255\n"):
        f.write_bytes(header + b"\x00" * 4)
        with pytest.raises(FormatError, match="positive"):
            read_pgm(f)


def test_checkpoint_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    ckpt = Checkpoint(
        tensors={"a.mu": rng.standard_normal((2, 3)), "b": rng.standard_normal(4), "c0": np.asarray(1.5)},
        hyper={"layers": "2", "hidden_channels": "16", "step": "12"},
    )
    f = tmp_path / "m.spck"
    write_checkpoint(f, ckpt)
    back = read_checkpoint(f)
    assert list(back.tensors) == ["a.mu", "b", "c0"]
    for k in ckpt.tensors:
        assert np.array_equal(back.tensors[k], np.asarray(ckpt.tensors[k], dtype=np.float64))
    assert back.hyper == ckpt.hyper
    f2 = tmp_path / "m2.spck"
    write_checkpoint(f2, back)
    assert f.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("hyper", [{"a=b": "1"}, {"a\nb": "1"}, {"a": "1\n"}, {"a": "1\u2028"},
                                   {"a": "\r"}, {"a": "x\x1cy"}])
def test_checkpoint_writer_rejects_unreadable_trailer(tmp_path, hyper):
    with pytest.raises(ParameterError):
        write_checkpoint(tmp_path / "m.spck", Checkpoint({"w": np.ones(1)}, hyper))
    assert not (tmp_path / "m.spck").exists()
    # '=' is fine in a value: the reader splits at the first one
    write_checkpoint(tmp_path / "m.spck", Checkpoint({"w": np.ones(1)}, {"a": "b=c"}))
    assert read_checkpoint(tmp_path / "m.spck").hyper == {"a": "b=c"}


def test_checkpoint_format_errors(tmp_path):
    f = tmp_path / "bad.spck"
    f.write_bytes(b"XXXX")
    with pytest.raises(FormatError):
        read_checkpoint(f)

    f.write_bytes(b"SPCK" + struct.pack("<I", 99) + struct.pack("<I", 0) + struct.pack("<I", 0))
    with pytest.raises(FormatError, match="version"):
        read_checkpoint(f)

    ckpt = Checkpoint(tensors={"x": np.ones(3)}, hyper={"k": "v"})
    good = tmp_path / "good.spck"
    write_checkpoint(good, ckpt)
    data = good.read_bytes()
    f.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError, match="truncated"):
        read_checkpoint(f)

    f.write_bytes(data.replace(b"x", b"\xff", 1))  # tensor name
    with pytest.raises(FormatError, match="UTF-8"):
        read_checkpoint(f)
    f.write_bytes(data.replace(b"k=v", b"k=\xff"))  # trailer
    with pytest.raises(FormatError, match="UTF-8"):
        read_checkpoint(f)
    huge = b"SPCK" + struct.pack("<IIIsI4I", 1, 1, 1, b"x", 4, *[65536] * 4)
    f.write_bytes(huge)
    with pytest.raises(FormatError, match="truncated"):
        read_checkpoint(f)
    # no values, but a shape numpy cannot hold
    empty = b"SPCK" + struct.pack("<IIIsI4I", 1, 1, 1, b"x", 4, 0, *[2**32 - 1] * 3) + struct.pack("<I", 0)
    f.write_bytes(empty)
    with pytest.raises(FormatError, match="shape"):
        read_checkpoint(f)


# ---------------------------------------------------------------------------
# fuzzing: every reader parses its input or raises FormatError


FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
READERS = {"csv": load_scanpath_dataset, "ftns": read_feature_tensor, "pgm": read_pgm, "spck": read_checkpoint}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of one small valid file per reader."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(6)
    save_scanpath_csv([Scanpath((GazePoint(1.5, 2.0, 0), GazePoint(3.0, 0.25, 1)), "img", "obs")],
                      root / "f.csv")
    write_feature_tensor(root / "f.ftns", rng.standard_normal((2, 3)))
    write_pgm(root / "f.pgm", rng.integers(0, 256, (3, 4), dtype=np.uint8))
    write_checkpoint(root / "f.spck", Checkpoint({"w": rng.standard_normal((2, 2)), "b": np.asarray(0.5)},
                                                 {"step": "3", "layers": "2"}))
    return {kind: (root / f"f.{kind}").read_bytes() for kind in READERS}


@st.composite
def mutations(draw, valid: bytes):
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("set", "cut", "insert")))
        if op == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "cut":
            del data[pos:pos + draw(st.integers(1, 8))]
        else:
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


@pytest.mark.parametrize("kind", list(READERS))
@FUZZ
@given(data=st.data())
def test_readers_raise_only_format_error(tmp_path, valid_files, kind, data):
    raw = data.draw(st.one_of(st.binary(max_size=64), mutations(valid_files[kind])))
    f = tmp_path / f"fuzz.{kind}"
    f.write_bytes(raw)
    try:
        READERS[kind](f)
    except FormatError:
        pass


@FUZZ
@given(arr=arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=4)))
def test_feature_tensor_fuzz_round_trip(tmp_path, arr):
    write_feature_tensor(tmp_path / "t.ftns", arr)
    back = read_feature_tensor(tmp_path / "t.ftns")
    assert back.shape == arr.shape and back.tobytes() == arr.tobytes()


@FUZZ
@given(arr=arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, max_side=6)))
def test_pgm_fuzz_round_trip(tmp_path, arr):
    write_pgm(tmp_path / "i.pgm", arr)
    assert np.array_equal(read_pgm(tmp_path / "i.pgm"), arr)


@FUZZ
@given(tensors=st.dictionaries(st.text(max_size=6), arrays(np.float64, array_shapes(min_dims=0, max_dims=3,
                                                                                  min_side=0, max_side=3)),
                               max_size=3),
       hyper=st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=3))
def test_checkpoint_fuzz_round_trip(tmp_path, tensors, hyper):
    # the writer refuses a trailer entry the reader could not split back; all else round-trips
    try:
        write_checkpoint(tmp_path / "m.spck", Checkpoint(tensors, hyper))
    except ParameterError:
        assert any("=" in k or f"{k}={v}".splitlines() != [f"{k}={v}"] for k, v in hyper.items())
        return
    back = read_checkpoint(tmp_path / "m.spck")
    assert list(back.tensors) == list(tensors) and back.hyper == hyper
    for name, arr in tensors.items():
        assert back.tensors[name].shape == arr.shape and back.tensors[name].tobytes() == arr.tobytes()


@FUZZ
@given(paths=st.lists(st.tuples(st.text(max_size=6), st.text(max_size=6),
                                st.lists(st.tuples(st.floats(0, 1e6), st.floats(0, 1e6)), min_size=1, max_size=4)),
                      max_size=4))
def test_scanpath_csv_fuzz_round_trip(tmp_path, paths):
    written = [Scanpath(tuple(GazePoint(x, y, i) for i, (x, y) in enumerate(pts)), image_id, observer_id)
               for image_id, observer_id, pts in paths]
    # the writer refuses an id the reader would split or strip; all else round-trips
    try:
        save_scanpath_csv(written, tmp_path / "s.csv")
    except ParameterError:
        ids = [(s.image_id, s.observer_id) for s in written]
        assert any(f"{a}|{b}".splitlines() != [f"{a}|{b}"] or any("," in i or i != i.strip() for i in (a, b))
                   for a, b in ids)
        return
    back = load_scanpath_dataset(tmp_path / "s.csv").scanpaths
    assert [(s.image_id, s.observer_id, s.coords().tobytes()) for s in back] == \
        [(s.image_id, s.observer_id, s.coords().tobytes()) for s in written]
