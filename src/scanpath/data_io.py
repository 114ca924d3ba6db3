"""Dataset ingestion, preprocessing, the synthetic benchmark and binary formats.

File formats (all little-endian, float64 payloads, bit-exact round trips):
  scanpath CSV     header `image_id,observer_id,fix_index,x,y`, one fixation
                   per row, rows of one scanpath contiguous with fix_index
                   ascending from 0; coordinates in native image space
  feature tensor   magic FTNS, u32 rank, rank u32 dims, f64 values
  checkpoint       magic SPCK, u32 version, u32 count, named tensor records,
                   then a key=value text trailer for hyperparameters
  images           binary 8-bit grayscale PGM (P5)
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import GazePoint, GridSpec, Scanpath, SpatializedScanpath, group_by_image, spatialize
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


@dataclass
class Dataset:
    images: list[ImageRecord]
    scanpaths: list[Scanpath]


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


def save_scanpath_csv(scanpaths, path) -> None:
    lines = [SCANPATH_CSV_HEADER]
    for s in scanpaths:
        for name in (s.image_id, s.observer_id):  # refuse what the reader would split or strip
            if "," in name or _has_line_break(name) or name != name.strip():
                raise ParameterError(f"id {name!r} has a comma, a line break or surrounding whitespace")
        for p in s.points:
            lines.append(f"{s.image_id},{s.observer_id},{p.index},{p.x!r},{p.y!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_scanpath_dataset(path, images_dir=None) -> Dataset:
    """Parse the scanpath CSV, grouping contiguous fix_index runs into scanpaths.

    When images_dir is given, every image_id must resolve to
    images_dir/<image_id>.pgm, which supplies native dimensions and pixels;
    otherwise dimensions are inferred from the largest coordinates seen.
    """
    with open(path, "rb") as fh:
        lines = _utf8(fh.read(), path).splitlines()
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
        if images_dir is not None:
            pgm = Path(images_dir) / f"{image_id}.pgm"
            if not pgm.exists():
                raise DataError(f"unknown image_id '{image_id}': no {pgm}")
            pixels = read_pgm(pgm)
            images.append(ImageRecord(image_id, pixels.shape[1], pixels.shape[0], pixels))
        else:
            mx, my = np.concatenate([s.coords() for s in paths]).max(axis=0)
            images.append(ImageRecord(image_id, math.floor(mx) + 1, math.floor(my) + 1, None))
    return Dataset(images=images, scanpaths=scanpaths)


# ---------------------------------------------------------------------------
# preprocessing


@dataclass(frozen=True, eq=False)
class PreparedExample:
    """One image ready for training: grid-space scanpaths of fixed length."""

    image_id: str
    scanpaths: tuple[Scanpath, ...]
    spatialized: tuple[SpatializedScanpath, ...]
    image: np.ndarray | None  # grid-resolution grayscale in [0, 1]


def rescale_point(x, y, src_w, src_h, dst_w, dst_h):
    gx = min(max(x * dst_w / src_w, 0.0), dst_w - 1e-9)
    gy = min(max(y * dst_h / src_h, 0.0), dst_h - 1e-9)
    return gx, gy


def grid_to_native(x, y, grid: GridSpec, native_w, native_h):
    """Map a grid coordinate back to a representative native-space position."""
    nx = (x + 0.5) * native_w / grid.width - 0.5
    ny = (y + 0.5) * native_h / grid.height - 0.5
    return min(max(nx, 0.0), native_w - 1.0), min(max(ny, 0.0), native_h - 1.0)


def resample_to_grid(pixels: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Nearest-index resampling of a grayscale image onto the model grid, in [0, 1]."""
    h, w = pixels.shape
    rows = np.minimum(((np.arange(grid.height) + 0.5) * h / grid.height).astype(int), h - 1)
    cols = np.minimum(((np.arange(grid.width) + 0.5) * w / grid.width).astype(int), w - 1)
    return pixels[np.ix_(rows, cols)].astype(np.float64) / 255.0


def preprocess(dataset: Dataset, grid: GridSpec, n_fix: int = 8, sigma: float = 2.0,
               min_len: int = 4) -> list[PreparedExample]:
    """Filter, align to fixed length, rescale into the grid and spatialize.

    Scanpaths shorter than min_len are discarded; longer-than-n_fix paths are
    truncated and shorter ones padded by repeating the last fixation.
    """
    by_image = group_by_image(dataset.scanpaths)
    out = []
    for rec in dataset.images:
        kept = []
        for s in by_image.get(rec.image_id, []):
            if s.n < min_len:
                continue
            pts = list(s.points[:n_fix])
            while len(pts) < n_fix:
                last = pts[-1]
                pts.append(GazePoint(last.x, last.y, len(pts)))
            gpts = []
            for i, p in enumerate(pts):
                gx, gy = rescale_point(p.x, p.y, rec.width, rec.height, grid.width, grid.height)
                gpts.append(GazePoint(gx, gy, i))
            kept.append(Scanpath(tuple(gpts), rec.image_id, s.observer_id))
        if not kept:
            warnings.warn(f"image '{rec.image_id}' has no scanpath of length >= {min_len}; excluded")
            continue
        spat = tuple(spatialize(s, grid, sigma) for s in kept)
        image = resample_to_grid(rec.pixels, grid) if rec.pixels is not None else None
        out.append(PreparedExample(rec.image_id, tuple(kept), spat, image))
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
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes(order="C"))


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
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
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f8").tobytes(order="C"))


def read_feature_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic, expected FTNS")
    if len(data) < 8:
        raise FormatError(f"{path}: truncated header")
    rank = struct.unpack("<I", data[4:8])[0]
    if rank == 0:
        raise FormatError(f"{path}: zero-dimensional header")
    if len(data) < 8 + 4 * rank:
        raise FormatError(f"{path}: truncated dimension list")
    dims = struct.unpack(f"<{rank}I", data[8:8 + 4 * rank])
    if any(d == 0 for d in dims):
        raise FormatError(f"{path}: zero-sized dimension")
    n = math.prod(dims)
    body = data[8 + 4 * rank:]
    if len(body) != 8 * n:
        raise FormatError(f"{path}: payload is {len(body)} bytes, expected {8 * n}")
    return np.frombuffer(body, dtype="<f8").reshape(dims).copy()


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
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(ckpt.tensors)))
        for name, arr in ckpt.tensors.items():
            arr = np.asarray(arr, dtype=np.float64)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            if arr.ndim:
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes(order="C"))
        trailer = "".join(f"{k}={v}\n" for k, v in ckpt.hyper.items()).encode("utf-8")
        fh.write(struct.pack("<I", len(trailer)))
        fh.write(trailer)


def read_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()

    def take(n, pos):
        if pos + n > len(data):
            raise FormatError(f"{path}: truncated checkpoint")
        return data[pos:pos + n], pos + n

    head, pos = take(4, 0)
    if head != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic, expected SPCK")
    raw, pos = take(4, pos)
    version = struct.unpack("<I", raw)[0]
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    raw, pos = take(4, pos)
    count = struct.unpack("<I", raw)[0]
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        raw, pos = take(4, pos)
        name_len = struct.unpack("<I", raw)[0]
        raw, pos = take(name_len, pos)
        name = _utf8(raw, path)
        raw, pos = take(4, pos)
        rank = struct.unpack("<I", raw)[0]
        dims = ()
        if rank:
            raw, pos = take(4 * rank, pos)
            dims = struct.unpack(f"<{rank}I", raw)
        n = math.prod(dims)
        raw, pos = take(8 * n, pos)
        try:  # an empty tensor may still name more dims, or larger ones, than numpy holds
            tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
        except ValueError:
            raise FormatError(f"{path}: tensor '{name}' has unsupported shape {dims}") from None
    raw, pos = take(4, pos)
    trailer_len = struct.unpack("<I", raw)[0]
    raw, pos = take(trailer_len, pos)
    hyper: dict[str, str] = {}
    for line in _utf8(raw, path).splitlines():
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}: malformed trailer line '{line}'")
        k, v = line.split("=", 1)
        hyper[k] = v
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes")
    return Checkpoint(tensors=tensors, hyper=hyper)
