"""Dataset ingestion, preprocessing, the synthetic benchmark and binary formats.

File formats (all little-endian, float64 payloads, bit-exact round trips):
  scanpath CSV     header `image_id,observer_id,fix_index,x,y`, one fixation
                   per row, rows of one scanpath contiguous with fix_index
                   ascending from 0; coordinates in native image space;
                   an image id holds no '/', '\\' or NUL
  tensor record    u32 rank, rank u32 dims, f64 values in C order
  feature tensor   magic FTNS, one tensor record (rank >= 1, no zero dim)
  checkpoint       magic SPCK, u32 version, u32 count, then per tensor a
                   u32-length UTF-8 name and its tensor record, then a
                   u32-length key=value text trailer for hyperparameters
  images           binary 8-bit grayscale PGM (P5)
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import GazePoint, GridSpec, Scanpath, group_by_image, spatialize
from .errors import DataError, FormatError, ParameterError

SCANPATH_CSV_HEADER = "image_id,observer_id,fix_index,x,y"
FEATURE_MAGIC = b"FTNS"
CHECKPOINT_MAGIC = b"SPCK"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ImageRecord:
    image_id: str
    width: int
    height: int
    pixels: np.ndarray | None = None  # uint8 [height, width] when available
    features: np.ndarray | None = None  # the image's precomputed feature tensor, when features_dir is given


@dataclass
class Dataset:
    images: list[ImageRecord]
    scanpaths: list[Scanpath]


# ---------------------------------------------------------------------------
# byte path and tensor codec


def write_atomic(path, chunks) -> None:
    """Write the byte chunks to `<name>.tmp` beside path, fsync it and rename it onto path; on any error unlink it.
    Then fsync the directory, so that the rename is durable too."""
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(tmp.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _take(data: bytes, pos: int, n: int, path, what: str) -> tuple[bytes, int]:
    """data[pos:pos + n] and the offset after it; FormatError when the file ends first."""
    if pos + n > len(data):
        raise FormatError(f"{path}: truncated {what}: {n} bytes needed at offset {pos}, {len(data) - pos} left")
    return data[pos:pos + n], pos + n


def _take_u32s(data: bytes, pos: int, count: int, path, what: str) -> tuple[tuple[int, ...], int]:
    raw, pos = _take(data, pos, 4 * count, path, what)
    return struct.unpack(f"<{count}I", raw), pos


def _encode_tensor(arr) -> bytes:
    arr = np.asarray(arr, dtype=np.float64)
    return struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape) + arr.astype("<f8").tobytes()


def _decode_tensor(data: bytes, pos: int, path, nonempty: bool = False) -> tuple[np.ndarray, int]:
    """The tensor record at pos and the offset after it; nonempty refuses rank 0 and zero dims before the body."""
    (rank,), pos = _take_u32s(data, pos, 1, path, "tensor rank")
    dims, pos = _take_u32s(data, pos, rank, path, "dimension list")
    if nonempty and (rank == 0 or 0 in dims):
        raise FormatError(f"{path}: zero-dimensional header or zero-sized dimension, shape {dims}")
    body, pos = _take(data, pos, 8 * math.prod(dims), path, "payload")
    try:  # an empty tensor may still name more dims, or larger ones, than numpy holds
        return np.frombuffer(body, dtype="<f8").reshape(dims).copy(), pos
    except ValueError:
        raise FormatError(f"{path}: tensor has unsupported shape {dims}") from None


# ---------------------------------------------------------------------------
# scanpath CSV


def _utf8(raw: bytes, path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8: {exc}") from None


def _has_line_break(text: str) -> bool:
    """True when str.splitlines, which the readers split on, would break the text."""
    return "".join(text.splitlines()) != text


def _leaves_directory(image_id: str) -> bool:
    """True when the id holds a path separator or NUL, so <dir>/<image_id>.pgm might name no file in <dir>."""
    return any(c in image_id for c in "/\\\0")


def save_scanpath_csv(scanpaths, path) -> None:
    lines = [SCANPATH_CSV_HEADER]
    for s in scanpaths:
        for name in (s.image_id, s.observer_id):  # refuse what the reader would split or strip
            if "," in name or _has_line_break(name) or name != name.strip():
                raise ParameterError(f"id {name!r} has a comma, a line break or surrounding whitespace")
        if _leaves_directory(s.image_id):
            raise ParameterError(f"image id {s.image_id!r} holds '/', '\\' or NUL")
        for p in s.points:
            lines.append(f"{s.image_id},{s.observer_id},{p.index},{p.x!r},{p.y!r}")
    write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])


def load_scanpath_dataset(path, images_dir=None, features_dir=None) -> Dataset:
    """Parse the scanpath CSV, grouping contiguous fix_index runs into scanpaths.

    When images_dir is given, every image_id must resolve to images_dir/<image_id>.pgm,
    which supplies native dimensions and pixels; otherwise dimensions are inferred from the
    largest coordinates seen. features_dir/<image_id>.ftns, when given, supplies its features.
    """
    lines = _utf8(Path(path).read_bytes(), path).splitlines()
    if not lines or lines[0].strip() != SCANPATH_CSV_HEADER:
        raise FormatError(f"{path}: missing or wrong header, expected '{SCANPATH_CSV_HEADER}'")

    scanpaths: list[Scanpath] = []
    current: list[GazePoint] = []
    current_ids: tuple[str, str] | None = None

    def flush():
        nonlocal current, current_ids
        if current:
            scanpaths.append(Scanpath(tuple(current), current_ids[0], current_ids[1]))
        current, current_ids = [], None

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
        image_id, observer_id, idx_s, x_s, y_s = (p.strip() for p in parts)
        if _leaves_directory(image_id):
            raise FormatError(f"{path}:{lineno}: image id {image_id!r} holds '/', '\\' or NUL")
        try:
            idx = int(idx_s)
            x = float(x_s)
            y = float(y_s)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        if not (math.isfinite(x) and math.isfinite(y)) or x < 0 or y < 0:
            raise FormatError(f"{path}:{lineno}: coordinates must be finite and nonnegative")
        if idx == 0:
            flush()
            current_ids = (image_id, observer_id)
        else:
            if current_ids != (image_id, observer_id):
                raise FormatError(f"{path}:{lineno}: scanpath rows must be contiguous per (image, observer)")
            if idx != current[-1].index + 1:
                raise FormatError(f"{path}:{lineno}: fix_index must ascend by 1, got {idx}")
        current.append(GazePoint(x, y, idx))
    flush()

    images = []
    for image_id, paths in group_by_image(scanpaths).items():
        pixels = features = None
        if images_dir is not None:
            pgm = Path(images_dir) / f"{image_id}.pgm"
            if not pgm.is_file():
                raise DataError(f"unknown image_id '{image_id}': no {pgm}")
            pixels = read_pgm(pgm)
            height, width = pixels.shape
        else:
            mx, my = np.concatenate([s.coords() for s in paths]).max(axis=0)
            width, height = math.floor(mx) + 1, math.floor(my) + 1
        if features_dir is not None:
            ftns = Path(features_dir) / f"{image_id}.ftns"
            if not ftns.is_file():
                raise DataError(f"missing feature file {ftns}")
            features = read_feature_tensor(ftns)
        images.append(ImageRecord(image_id, width, height, pixels, features))
    return Dataset(images=images, scanpaths=scanpaths)


# ---------------------------------------------------------------------------
# preprocessing


@dataclass(frozen=True, eq=False)
class PreparedExample:
    """One image ready for training: grid-space scanpaths of fixed length, with the grid and the Gaussian width
    they were prepared for. It holds points; their [N, H, W] map stacks are rendered when asked for."""

    image_id: str
    scanpaths: tuple[Scanpath, ...]
    grid: GridSpec
    sigma: float
    image: np.ndarray | None  # grid-resolution grayscale in [0, 1]
    features: np.ndarray | None = None  # precomputed feature tensor, for feature_source=precomputed

    @property
    def spatialized(self) -> tuple[np.ndarray, ...]:
        """Each scanpath's [N, H, W] map stack at the example's grid and sigma, rendered anew on every access."""
        return tuple(spatialize(s, self.grid, self.sigma) for s in self.scanpaths)


def to_grid(s: Scanpath, width, height, grid: GridSpec) -> Scanpath:
    """s rescaled from a width x height native image into the grid, its points renumbered from 0."""
    pts = (GazePoint(min(max(p.x * grid.width / width, 0.0), grid.width - 1e-9),
                     min(max(p.y * grid.height / height, 0.0), grid.height - 1e-9), i)
           for i, p in enumerate(s.points))
    return Scanpath(tuple(pts), s.image_id, s.observer_id)


def to_native(s: Scanpath, width, height, grid: GridSpec) -> Scanpath:
    """Grid points mapped back to representative positions in a width x height native image, indices kept."""
    pts = (GazePoint(min(max((p.x + 0.5) * width / grid.width - 0.5, 0.0), width - 1.0),
                     min(max((p.y + 0.5) * height / grid.height - 0.5, 0.0), height - 1.0), p.index)
           for p in s.points)
    return Scanpath(tuple(pts), s.image_id, s.observer_id)


def resample_to_grid(pixels: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Nearest-index resampling of a grayscale image onto the model grid, in [0, 1]."""
    h, w = pixels.shape
    rows = np.minimum(((np.arange(grid.height) + 0.5) * h / grid.height).astype(int), h - 1)
    cols = np.minimum(((np.arange(grid.width) + 0.5) * w / grid.width).astype(int), w - 1)
    return pixels[np.ix_(rows, cols)].astype(np.float64) / 255.0


def preprocess(dataset: Dataset, grid: GridSpec, n_fix: int = 8, sigma: float = 2.0,
               min_len: int = 4) -> list[PreparedExample]:
    """Filter, align to fixed length and rescale into the grid; sigma is kept for rendering the maps.

    Scanpaths shorter than min_len are discarded; longer-than-n_fix paths are
    truncated and shorter ones padded by repeating the last fixation.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    by_image = group_by_image(dataset.scanpaths)
    out = []
    for rec in dataset.images:
        kept = []
        for s in by_image.get(rec.image_id, []):
            if s.n < min_len:
                continue
            padded = Scanpath((s.points + s.points[-1:] * n_fix)[:n_fix], rec.image_id, s.observer_id)
            kept.append(to_grid(padded, rec.width, rec.height, grid))
        if not kept:
            warnings.warn(f"image '{rec.image_id}' has no scanpath of length >= {min_len}; excluded")
            continue
        image = resample_to_grid(rec.pixels, grid) if rec.pixels is not None else None
        out.append(PreparedExample(rec.image_id, tuple(kept), grid, sigma, image, rec.features))
    return out


# ---------------------------------------------------------------------------
# synthetic benchmark


def synth_dataset(n_images: int, observers_per_image: int, roi_per_image: int,
                  grid: GridSpec, rng: np.random.Generator,
                  noise_frac: float = 0.03, length: int = 8) -> Dataset:
    """Desk-scale synthetic gaze data: Gaussian regions of interest per image,
    observers starting near the center and visiting the ROIs in personal order.

    Fixation noise std is noise_frac * width. Image pixels are rendered as the
    ROI intensity field so a trainable feature stack has signal to pick up.
    """
    if n_images < 1 or observers_per_image < 1 or roi_per_image < 1:
        raise ParameterError("synth_dataset needs positive counts")
    w, h = grid.width, grid.height
    cx, cy = grid.center
    noise = noise_frac * w
    roi_sigma = 0.10 * w

    images, scanpaths = [], []
    for i in range(n_images):
        image_id = f"synth{i:03d}"
        rois = np.column_stack(
            [rng.uniform(0.15 * w, 0.85 * w, roi_per_image), rng.uniform(0.15 * h, 0.85 * h, roi_per_image)]
        )
        ys, xs = np.mgrid[0:h, 0:w]
        field = np.zeros((h, w))
        for rx, ry in rois:
            field += np.exp(-((xs - rx) ** 2 + (ys - ry) ** 2) / (2 * roi_sigma**2))
        pixels = np.round(field / field.max() * 255.0).astype(np.uint8)
        images.append(ImageRecord(image_id, w, h, pixels))

        # canonical visiting schedule: center-closest ROI first, even dwells
        dist = np.hypot(rois[:, 0] - cx, rois[:, 1] - cy)
        canonical = np.argsort(dist, kind="stable")
        n_rest = length - 1
        dwell = np.full(roi_per_image, n_rest // roi_per_image)
        dwell[: n_rest % roi_per_image] += 1
        schedule = np.concatenate([np.full(d, canonical[k]) for k, d in enumerate(dwell) if d > 0])

        for o in range(observers_per_image):
            pts = []
            sx = float(np.clip(cx + rng.normal(0.0, noise), 0, w - 1e-6))
            sy = float(np.clip(cy + rng.normal(0.0, noise), 0, h - 1e-6))
            pts.append(GazePoint(sx, sy, 0))
            for idx in range(1, length):
                # observers drift off the canonical schedule more and more as
                # the scanpath unfolds, spreading later fixations wider
                p_dev = min(0.85, 0.10 + 0.45 * math.log(idx) / math.log(max(length - 1, 2)))
                if roi_per_image > 1 and rng.random() < p_dev:
                    k = int(rng.integers(roi_per_image))
                else:
                    k = int(schedule[idx - 1])
                rx, ry = rois[k]
                fx = float(np.clip(rx + rng.normal(0.0, noise), 0, w - 1e-6))
                fy = float(np.clip(ry + rng.normal(0.0, noise), 0, h - 1e-6))
                pts.append(GazePoint(fx, fy, idx))
            scanpaths.append(Scanpath(tuple(pts), image_id, f"obs{o:02d}"))
    return Dataset(images=images, scanpaths=scanpaths)


# ---------------------------------------------------------------------------
# PGM


def write_pgm(path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.dtype != np.uint8 or 0 in pixels.shape:
        raise ParameterError("write_pgm expects a nonempty 2-D uint8 array")
    h, w = pixels.shape
    write_atomic(path, [f"P5\n{w} {h}\n255\n".encode("ascii"), pixels.tobytes(order="C")])


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (P5)")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # comments (#...) allowed between them
    pos, tokens = 2, []
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise FormatError(f"{path}: malformed PGM header") from None
    if w < 1 or h < 1:
        raise FormatError(f"{path}: PGM dimensions must be positive, got {w}x{h}")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    body = data[pos:pos + w * h]
    if len(body) != w * h:
        raise FormatError(f"{path}: PGM body truncated")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w).copy()


# ---------------------------------------------------------------------------
# feature tensor file


def write_feature_tensor(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 0 or 0 in arr.shape:
        raise ParameterError("feature tensors must have rank >= 1 and no empty dimension")
    write_atomic(path, [FEATURE_MAGIC, _encode_tensor(arr)])


def read_feature_tensor(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic, expected FTNS")
    arr, pos = _decode_tensor(data, 4, path, nonempty=True)
    if pos != len(data):
        raise FormatError(f"{path}: payload is {len(data) - pos} bytes longer than its header declares")
    return arr


# ---------------------------------------------------------------------------
# checkpoint file


@dataclass(eq=False)
class Checkpoint:
    """Named tensors plus a text trailer of hyperparameters and counters."""

    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    hyper: dict[str, str] = field(default_factory=dict)


def write_checkpoint(path, ckpt: Checkpoint) -> None:
    for k, v in ckpt.hyper.items():  # refuse what read_checkpoint could not split back
        if "=" in k or _has_line_break(k) or _has_line_break(v):
            raise ParameterError(f"trailer entry {k!r}={v!r}: a key may not hold '=' and no entry a line break")
    chunks = [CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(ckpt.tensors))]
    for name, arr in ckpt.tensors.items():
        nb = name.encode("utf-8")
        chunks += [struct.pack("<I", len(nb)) + nb, _encode_tensor(arr)]
    trailer = "".join(f"{k}={v}\n" for k, v in ckpt.hyper.items()).encode("utf-8")
    write_atomic(path, chunks + [struct.pack("<I", len(trailer)), trailer])


def read_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic, expected SPCK")
    (version, count), pos = _take_u32s(data, 4, 2, path, "header")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,), pos = _take_u32s(data, pos, 1, path, "tensor name length")
        raw, pos = _take(data, pos, name_len, path, "tensor name")
        name = _utf8(raw, path)
        if name in tensors:
            raise FormatError(f"{path}: tensor '{name}' appears twice")
        tensors[name], pos = _decode_tensor(data, pos, path)
    (trailer_len,), pos = _take_u32s(data, pos, 1, path, "trailer length")
    raw, pos = _take(data, pos, trailer_len, path, "trailer")
    hyper: dict[str, str] = {}
    for line in _utf8(raw, path).splitlines():
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}: malformed trailer line '{line}'")
        k, v = line.split("=", 1)
        if k in hyper:
            raise FormatError(f"{path}: trailer key '{k}' appears twice")
        hyper[k] = v
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes")
    return Checkpoint(tensors=tensors, hyper=hyper)
