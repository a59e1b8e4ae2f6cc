"""Cube I/O, patching, splits, noise injection, synthetic scenes, map export.

Cubes and label rasters live on disk as NPY v1.0 files: '<f4' with shape
(H, W, C) for reflectance cubes, '<u2' with shape (H, W) for label maps
(0 = unlabeled background). Classification maps are exported as binary
PPM (P6) images.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DimensionError, FormatError, NumericError, SplitError,
                     check_int, check_real)

_NPY_MAGIC = b"\x93NUMPY"

CUBE_DESCR = "<f4"
LABEL_DESCR = "<u2"


@dataclass
class HyperCube:
    values: np.ndarray  # (H, W, C) float32

    def __post_init__(self):
        with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, refused below
            self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 3:
            raise DimensionError(f"cube must be (H, W, C), got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise NumericError("cube contains non-finite values")

    @property
    def height(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]

    @property
    def bands(self):
        return self.values.shape[2]


@dataclass
class LabelMap:
    ids: np.ndarray  # (H, W) uint16, 0 = background

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.uint16)
        if self.ids.ndim != 2:
            raise DimensionError(f"label map must be (H, W), got {self.ids.shape}")

    @property
    def num_classes(self):
        return int(self.ids.max())

    def check_pairing(self, cube):
        if self.ids.shape != cube.values.shape[:2]:
            raise FormatError(
                f"label raster {self.ids.shape} does not pair with cube "
                f"{cube.values.shape[:2]}")


@dataclass
class SplitSpec:
    train_frac: float = 0.01
    val_frac: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("train_frac", "val_frac"):
            check_real(name, getattr(self, name), lambda v: 0 < v < 1, "in (0, 1)")
        check_int("seed", self.seed, 0)
        if self.train_frac + self.val_frac >= 1:
            raise ConfigError("train_frac + val_frac must be < 1")


@dataclass
class SynthSpec:
    height: int = 64
    width: int = 64
    bands: int = 32
    classes: int = 8
    sites: int = 24
    gain_lo: float = 0.5
    gain_hi: float = 1.5
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("height", "width", "bands"):
            check_int(name, getattr(self, name), 1)
        check_int("classes", self.classes, 2)
        check_int("sites", self.sites, self.classes)  # one Voronoi site per class at least
        check_int("seed", self.seed, 0)
        check_real("gain_lo", self.gain_lo, lambda v: 0 < v < math.inf, "finite and > 0")
        check_real("gain_hi", self.gain_hi, lambda v: self.gain_lo <= v < math.inf,
                   f"finite and >= gain_lo {self.gain_lo}")
        check_snr_db(self.snr_db)


def _read_npy(path, expected_descr, expected_ndim):
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:6] != _NPY_MAGIC:
        raise FormatError(f"{path}: bad magic at offset 0")
    if buf[6:8] != b"\x01\x00":
        raise FormatError(f"{path}: unsupported NPY version at offset 6")
    if len(buf) < 10:
        raise FormatError(f"{path}: truncated header length field at offset 8")
    hlen = int.from_bytes(buf[8:10], "little")
    header_end = 10 + hlen
    try:
        header = ast.literal_eval(buf[10:header_end].decode("latin1"))
    except Exception:
        raise FormatError(f"{path}: unparseable header at offset 10") from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header at offset 10 is a {type(header).__name__}, not a dict")
    descr, fortran, shape = header.get("descr"), header.get("fortran_order"), header.get("shape")
    if descr != expected_descr:
        raise FormatError(f"{path}: dtype {descr!r} at offset 10, expected {expected_descr!r}")
    if not isinstance(fortran, bool):
        raise FormatError(f"{path}: fortran_order {fortran!r} at offset 10, expected a bool")
    if fortran:
        raise FormatError(f"{path}: fortran_order payloads unsupported (offset 10)")
    # a bool is an int subclass, so compare types exactly
    if not (isinstance(shape, tuple) and len(shape) == expected_ndim
            and all(type(s) is int and s >= 1 for s in shape)):
        raise FormatError(f"{path}: shape {shape!r} at offset 10, expected {expected_ndim} "
                          f"ints >= 1")
    itemsize = np.dtype(expected_descr).itemsize
    expected_bytes = math.prod(shape) * itemsize  # exact: np.prod wraps around in int64
    if len(buf) - header_end != expected_bytes:
        raise FormatError(
            f"{path}: payload of {len(buf) - header_end} bytes at offset {header_end} "
            f"does not match declared shape {shape} ({expected_bytes} bytes)")
    return np.frombuffer(buf, dtype=expected_descr, offset=header_end).reshape(shape)


def load_cube(path):
    return HyperCube(_read_npy(path, CUBE_DESCR, 3).copy())


def load_labels(path):
    return LabelMap(_read_npy(path, LABEL_DESCR, 2).copy())


def save_cube(path, cube):
    np.save(path, cube.values.astype("<f4"))


def save_labels(path, labels):
    np.save(path, labels.ids.astype("<u2"))


def normalize_bands(cube):
    """Per-band min-max scaling to [0, 1]; constant bands map to 0."""
    v = cube.values.astype(np.float64)
    lo = v.min(axis=(0, 1), keepdims=True)
    hi = v.max(axis=(0, 1), keepdims=True)
    span = hi - lo
    span[span == 0] = 1.0
    return HyperCube(((v - lo) / span).astype(np.float32))


def _reflect_index(i, n):
    """Mirror (reflect-without-repeat) an index into [0, n)."""
    if n == 1:
        return np.zeros_like(i)
    period = 2 * (n - 1)
    i = np.abs(i) % period
    return np.where(i >= n, period - i, i)


def extract_patch(cube, row, col, patch_size):
    """P x P window centered at (row, col); borders mirror into the scene."""
    h, w = cube.values.shape[:2]
    if not (0 <= row < h and 0 <= col < w):
        raise DimensionError(f"center ({row}, {col}) outside {h}x{w} image")
    return extract_patches(cube, [row * w + col], patch_size)[0]


def extract_patches(cube, flat_indices, patch_size):
    """(B, P, P, C) float64 windows centered at flat row-major pixel indices,
    gathered in one take; borders mirror into the scene."""
    h, w = cube.values.shape[:2]
    flat = np.asarray(flat_indices, dtype=np.int64)
    outside = (flat < 0) | (flat >= h * w)
    if outside.any():
        raise DimensionError(f"flat index {flat[outside][0]} outside {h}x{w} image")
    offsets = np.arange(patch_size) - patch_size // 2
    rows = _reflect_index(flat[:, None] // w + offsets, h)  # (B, P)
    cols = _reflect_index(flat[:, None] % w + offsets, w)
    return cube.values[rows[:, :, None], cols[:, None, :]].astype(np.float64)


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def stratified_split(labels, spec):
    """Per-class seeded shuffles into train/val/test index arrays.

    Indices are flat row-major positions into the label raster. Background
    (class 0) never appears in any split.
    """
    ids = labels.ids.reshape(-1)
    classes = np.unique(ids[ids > 0])
    if len(classes) < 2:
        raise SplitError("need at least 2 labeled classes")
    rng = np.random.default_rng(spec.seed)
    train, val, test = [], [], []
    for c in classes:
        members = np.flatnonzero(ids == c)
        if len(members) < 3:
            raise SplitError(f"class {int(c)} has only {len(members)} labeled pixels (need >= 3)")
        perm = rng.permutation(members)
        n_train = max(1, _round_half_up(spec.train_frac * len(members)))
        n_val = max(1, _round_half_up(spec.val_frac * len(members)))
        train.append(perm[:n_train])
        val.append(perm[n_train:n_train + n_val])
        test.append(perm[n_train + n_val:])
    return (np.sort(np.concatenate(train)), np.sort(np.concatenate(val)),
            np.sort(np.concatenate(test)))


def check_snr_db(snr_db):
    """Raise ConfigError unless ``snr_db`` is None (no noise) or in [-3000, 3000] dB:
    about 3080 dB from 0 the power ratio 10^(dB/10) overflows float64 or becomes 0."""
    if snr_db is not None:
        check_real("snr_db", snr_db, lambda v: -3000 <= v <= 3000, "in [-3000, 3000] dB or None")


def inject_noise(cube, snr_db, seed):
    """Additive Gaussian noise at a target SNR relative to the cube's mean power."""
    check_int("seed", seed, 0)
    check_snr_db(snr_db)
    if snr_db is None:
        return HyperCube(cube.values.copy())
    v = cube.values.astype(np.float64)
    signal_power = float(np.mean(v * v))
    sigma = np.sqrt(signal_power / (10.0 ** (snr_db / 10.0)))
    rng = np.random.default_rng(seed)
    return HyperCube(v + rng.normal(0.0, sigma, size=v.shape))


def _endmembers(rng, classes, bands):
    """Smooth positive spectra: three random-phase sinusoids plus an offset."""
    b = np.arange(bands) / bands
    spectra = np.zeros((classes, bands))
    for k in range(classes):
        s = np.zeros(bands)
        for _ in range(3):
            amp = rng.uniform(0.3, 1.0)
            freq = rng.uniform(0.5, 4.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            s += amp * np.sin(2.0 * np.pi * freq * b + phase)
        spectra[k] = s - s.min() + 0.2
    return spectra


def synth_scene(spec):
    """Voronoi-region scene of gain-scaled endmember spectra.

    Every pixel carries its region's class spectrum times a per-pixel gain
    drawn from [gain_lo, gain_hi], so class identity is encoded purely in
    spectral direction, not magnitude.
    """
    rng = np.random.default_rng(spec.seed)
    endmembers = _endmembers(rng, spec.classes, spec.bands)
    sites = np.column_stack([rng.uniform(0, spec.height, spec.sites),
                             rng.uniform(0, spec.width, spec.sites)])
    site_class = np.arange(spec.sites) % spec.classes + 1  # round-robin labels
    rr, cc = np.meshgrid(np.arange(spec.height), np.arange(spec.width), indexing="ij")
    d2 = ((rr[..., None] - sites[:, 0]) ** 2 + (cc[..., None] - sites[:, 1]) ** 2)
    label_ids = site_class[np.argmin(d2, axis=-1)].astype(np.uint16)
    gains = rng.uniform(spec.gain_lo, spec.gain_hi, size=(spec.height, spec.width, 1))
    with np.errstate(over="ignore"):  # a product beyond float64 is inf, which HyperCube refuses
        cube = HyperCube(gains * endmembers[label_ids - 1])
    if spec.snr_db is not None:
        cube = inject_noise(cube, spec.snr_db, spec.seed + 1)
    return cube, LabelMap(label_ids)


def class_color(k, num_classes):
    """RGB bytes for class k >= 1: HSV(360(k-1)/K, 0.75, 0.95); class 0 is black."""
    if k == 0:
        return (0, 0, 0)
    h = 360.0 * (k - 1) / num_classes
    s, v = 0.75, 0.95
    c = v * s
    x = c * (1.0 - abs((h / 60.0) % 2.0 - 1.0))
    m = v - c
    sector = int(h // 60) % 6
    rgb = [(c, x, 0), (x, c, 0), (0, c, x), (0, x, c), (x, 0, c), (c, 0, x)][sector]
    return tuple(int(np.floor((ch + m) * 255.0 + 0.5)) for ch in rgb)


def export_map(predictions, path, num_classes=None):
    """Write class-id raster as a binary PPM (P6, maxval 255)."""
    predictions = np.asarray(predictions)
    if predictions.ndim != 2:
        raise DimensionError(f"prediction map must be 2-D, got {predictions.shape}")
    k = num_classes if num_classes is not None else max(int(predictions.max()), 1)
    palette = np.array([class_color(i, k) for i in range(int(predictions.max()) + 1)],
                       dtype=np.uint8)
    pixels = palette[predictions]
    h, w = predictions.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
