import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from angleattn.data import (HyperCube, LabelMap, SplitSpec, SynthSpec, class_color,
                            export_map, extract_patch, extract_patches, inject_noise,
                            load_cube, load_labels, normalize_bands, save_cube, save_labels,
                            stratified_split, synth_scene)
from angleattn.errors import ConfigError, DimensionError, FormatError, NumericError, SplitError


def write_npy(path, tail):
    """An NPY file with valid v1.0 magic and version, then ``tail`` verbatim."""
    path.write_bytes(b"\x93NUMPY\x01\x00" + tail)


def npy_header(text):
    """The header length field and ``text``, as an NPY v1.0 file holds them."""
    raw = text.encode("latin1")
    return len(raw).to_bytes(2, "little") + raw


LATIN1 = st.characters(max_codepoint=255)  # the NPY header's encoding


def small_cube(seed=0, shape=(6, 7, 3)):
    rng = np.random.default_rng(seed)
    return HyperCube(rng.uniform(0, 100, size=shape).astype(np.float32))


class TestCubeIO:
    def test_round_trip(self, tmp_path):
        cube = HyperCube(np.arange(12, dtype=np.float32).reshape(2, 2, 3))
        path = str(tmp_path / "cube.npy")
        save_cube(path, cube)
        loaded = load_cube(path)
        np.testing.assert_array_equal(loaded.values, cube.values)

    def test_labels_round_trip(self, tmp_path):
        labels = LabelMap(np.array([[0, 1], [2, 3]], dtype=np.uint16))
        path = str(tmp_path / "labels.npy")
        save_labels(path, labels)
        np.testing.assert_array_equal(load_labels(path).ids, labels.ids)

    def test_wrong_dtype_rejected(self, tmp_path):
        path = str(tmp_path / "labels.npy")
        np.save(path, np.zeros((2, 2), dtype="<f4"))
        with pytest.raises(FormatError, match="dtype"):
            load_labels(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"NOTNUMPY" + b"\x00" * 64)
        with pytest.raises(FormatError, match="offset 0"):
            load_cube(str(path))

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "cube.npy")
        np.save(path, np.zeros((2, 2, 3), dtype="<f4"))
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[:-4])
        with pytest.raises(FormatError, match="payload"):
            load_cube(str(path))

    @pytest.mark.parametrize("header", [
        "[1, 2]",
        "{'descr': '<f4', 'fortran_order': False}",
        "{'descr': '<f4', 'fortran_order': False, 'shape': 5}",
        "{'descr': '<f4', 'fortran_order': False, 'shape': ('a', 'b', 'c')}",
        "{'descr': '<f4', 'fortran_order': False, 'shape': (True, 2, 2)}",
        "{'descr': '<f4', 'fortran_order': 0, 'shape': (2, 2, 3)}",
        # 2**120 elements: a product taken in int64 wraps around to 0
        "{'descr': '<f4', 'fortran_order': False, 'shape': (1099511627776,) * 3}",
    ])
    def test_malformed_header_is_format_error(self, tmp_path, header):
        path = tmp_path / "bad.npy"
        write_npy(path, npy_header(header))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*offset 10"):
            load_cube(str(path))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tail=st.one_of(
        st.binary(max_size=200),
        st.builds(lambda header, payload: npy_header(repr(header)) + payload,
                  st.dictionaries(
                      st.sampled_from(["descr", "fortran_order", "shape", "x"]),
                      st.one_of(st.sampled_from(["<f4", "<u2", "<f8"]), st.booleans(),
                                st.integers(-2, 2 ** 70), st.text(LATIN1, max_size=4), st.none(),
                                st.tuples(), st.lists(st.integers(0, 3), max_size=4),
                                st.lists(st.one_of(st.integers(-1, 4), st.booleans()),
                                         min_size=2, max_size=3).map(tuple))),
                  st.binary(max_size=48)),
        st.builds(lambda text, payload: npy_header(text) + payload,
                  st.text(LATIN1, max_size=80),
                  st.binary(max_size=16))))
    def test_fuzzed_header_loads_or_is_format_error(self, tmp_path, tail):
        path = tmp_path / "fuzz.npy"
        write_npy(path, tail)
        for load in (load_cube, load_labels):
            try:
                load(str(path))
            except FormatError:
                pass
            except NumericError as exc:  # a well-formed cube whose payload holds NaN or inf
                assert load is load_cube and str(exc) == "cube contains non-finite values"

    def test_pairing_error(self):
        cube = small_cube()
        labels = LabelMap(np.ones((3, 3), dtype=np.uint16))
        with pytest.raises(FormatError, match="pair"):
            labels.check_pairing(cube)


class TestNormalizeBands:
    def test_full_range_unchanged(self):
        vals = np.zeros((2, 2, 1), dtype=np.float32)
        vals[0, 0, 0], vals[1, 1, 0] = 0.0, 1.0
        vals[0, 1, 0], vals[1, 0, 0] = 0.25, 0.75
        out = normalize_bands(HyperCube(vals))
        np.testing.assert_allclose(out.values, vals, atol=1e-7)

    def test_constant_band_zeroed(self):
        out = normalize_bands(HyperCube(np.full((2, 2, 2), 7.0, dtype=np.float32)))
        np.testing.assert_array_equal(out.values, 0.0)

    def test_affine_map(self):
        vals = np.array([10.0, 20.0, 30.0], dtype=np.float32).reshape(3, 1, 1)
        out = normalize_bands(HyperCube(vals))
        np.testing.assert_allclose(out.values.reshape(-1), [0.0, 0.5, 1.0], atol=1e-7)


class TestExtractPatch:
    def test_interior_p1(self):
        cube = small_cube(1)
        patch = extract_patch(cube, 2, 3, 1)
        np.testing.assert_array_equal(patch[0, 0], cube.values[2, 3])

    def test_corner_mirror(self):
        cube = small_cube(2)
        patch = extract_patch(cube, 0, 0, 3)
        # reflect-without-repeat: window rows (-1, 0, 1) map to (1, 0, 1)
        np.testing.assert_array_equal(patch[0, 0], cube.values[1, 1])
        np.testing.assert_array_equal(patch[1, 1], cube.values[0, 0])
        np.testing.assert_array_equal(patch[0, 1], cube.values[1, 0])

    def test_adjacent_centers_overlap(self):
        cube = small_cube(3)
        a = extract_patch(cube, 3, 3, 3)
        b = extract_patch(cube, 3, 4, 3)
        np.testing.assert_array_equal(a[:, 1:], b[:, :2])

    def test_out_of_image_center(self):
        with pytest.raises(DimensionError):
            extract_patch(small_cube(), 99, 0, 3)

    def test_only_scene_values(self):
        cube = HyperCube(np.full((4, 4, 2), 3.5, dtype=np.float32))
        patch = extract_patch(cube, 0, 0, 5)
        assert (patch == 3.5).all()


class TestExtractPatches:
    """The batched gather: one reflect rule for every patch size and border."""

    @staticmethod
    def padded_patch(cube, row, col, patch_size):
        """The window cut from a scene mirror-padded by np.pad's reflect mode."""
        half = patch_size // 2
        pad = ((half, patch_size - 1 - half),) * 2 + ((0, 0),)
        padded = np.pad(cube.values, pad, mode="reflect")
        return padded[row:row + patch_size, col:col + patch_size].astype(np.float64)

    @pytest.mark.parametrize("shape", [(5, 7, 3), (6, 1, 2)])  # and a 1-pixel-wide scene
    def test_equals_stacked_extract_patch(self, shape):
        cube = small_cube(4, shape)
        h, w = shape[:2]
        flat = np.arange(h * w)
        for patch_size in range(1, 17):
            stacked = np.stack([extract_patch(cube, i // w, i % w, patch_size) for i in flat])
            padded = np.stack([self.padded_patch(cube, i // w, i % w, patch_size) for i in flat])
            batched = extract_patches(cube, flat, patch_size)
            assert batched.shape == (h * w, patch_size, patch_size, shape[2])
            assert batched.dtype == np.float64
            np.testing.assert_array_equal(batched, stacked, err_msg=f"P={patch_size}")
            np.testing.assert_array_equal(batched, padded, err_msg=f"P={patch_size}")

    @pytest.mark.parametrize("flat", [[-1], [0, 42], [3, -7, 5]])
    def test_out_of_image_index(self, flat):
        with pytest.raises(DimensionError, match="outside 6x7 image"):
            extract_patches(small_cube(), flat, 3)

    def test_empty_selection(self):
        assert extract_patches(small_cube(), [], 3).shape == (0, 3, 3, 3)


class TestStratifiedSplit:
    def make_labels(self, counts):
        ids = np.concatenate([np.full(n, c + 1, dtype=np.uint16)
                              for c, n in enumerate(counts)])
        pad = 120 - len(ids)
        ids = np.concatenate([ids, np.zeros(pad, dtype=np.uint16)])
        return LabelMap(ids.reshape(10, 12))

    def test_exact_percentages(self):
        labels = self.make_labels([100, 10])
        train, val, test = stratified_split(labels, SplitSpec(0.01, 0.01, seed=0))
        flat = labels.ids.reshape(-1)
        assert (flat[train] == 1).sum() == 1
        assert (flat[val] == 1).sum() == 1
        assert (flat[test] == 1).sum() == 98

    def test_seed_determinism(self):
        labels = self.make_labels([60, 40])
        a = stratified_split(labels, SplitSpec(0.1, 0.1, seed=5))
        b = stratified_split(labels, SplitSpec(0.1, 0.1, seed=5))
        c = stratified_split(labels, SplitSpec(0.1, 0.1, seed=6))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_partition(self):
        labels = self.make_labels([50, 30, 20])
        train, val, test = stratified_split(labels, SplitSpec(0.1, 0.2, seed=1))
        union = np.sort(np.concatenate([train, val, test]))
        np.testing.assert_array_equal(union, np.flatnonzero(labels.ids.reshape(-1) > 0))
        assert len(set(train) & set(val)) == 0
        assert len(set(train) & set(test)) == 0
        assert len(set(val) & set(test)) == 0

    def test_small_class_rejected(self):
        labels = self.make_labels([50, 2])
        with pytest.raises(SplitError, match="class 2"):
            stratified_split(labels, SplitSpec(0.1, 0.1, seed=0))

    def test_background_excluded(self):
        labels = self.make_labels([40, 40])
        train, val, test = stratified_split(labels, SplitSpec(0.05, 0.05, seed=2))
        flat = labels.ids.reshape(-1)
        for idx in (train, val, test):
            assert (flat[idx] > 0).all()


class TestInjectNoise:
    def test_none_unchanged(self):
        cube = small_cube(4)
        out = inject_noise(cube, None, 0)
        np.testing.assert_array_equal(out.values, cube.values)

    def test_empirical_snr(self):
        cube = normalize_bands(HyperCube(
            np.random.default_rng(5).uniform(0, 1, size=(64, 64, 32)).astype(np.float32)))
        target = 20.0
        noisy = inject_noise(cube, target, seed=7)
        noise = noisy.values.astype(np.float64) - cube.values.astype(np.float64)
        snr = 10 * np.log10(np.mean(cube.values.astype(np.float64) ** 2)
                            / np.mean(noise ** 2))
        assert abs(snr - target) < 0.5

    def test_seed_determinism_and_shape(self):
        cube = small_cube(6)
        a = inject_noise(cube, 15.0, seed=3)
        b = inject_noise(cube, 15.0, seed=3)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values.shape == cube.values.shape

    @pytest.mark.parametrize("snr_db,seed", [(20.0, -1), (None, -1), (20.0, 1.5),
                                             (float("nan"), 0), ("20", 0), (float("inf"), 0),
                                             (-float("inf"), 0), (4000.0, 0), (-4000.0, 0)])
    def test_bad_seed_or_snr_is_config_error(self, snr_db, seed):
        with pytest.raises(ConfigError, match="seed|snr_db"):
            inject_noise(small_cube(4), snr_db, seed)


class TestSynthScene:
    def test_unit_gain_constant_class_spectra(self):
        spec = SynthSpec(height=16, width=16, bands=8, classes=3, sites=6,
                         gain_lo=1.0, gain_hi=1.0, seed=0)
        cube, labels = synth_scene(spec)
        for c in range(1, 4):
            mask = labels.ids == c
            spectra = cube.values[mask]
            assert np.ptp(spectra, axis=0).max() < 1e-6

    def test_gain_preserves_direction(self):
        spec = SynthSpec(height=16, width=16, bands=8, classes=3, sites=6,
                         gain_lo=0.5, gain_hi=1.5, seed=1)
        cube, labels = synth_scene(spec)
        for c in range(1, 4):
            spectra = cube.values[labels.ids == c].astype(np.float64)
            ref = spectra[0] / np.linalg.norm(spectra[0])
            cosines = (spectra / np.linalg.norm(spectra, axis=1, keepdims=True)) @ ref
            assert cosines.min() > 1.0 - 1e-6

    def test_seed_determinism(self):
        spec = SynthSpec(seed=11)
        _, a = synth_scene(spec)
        _, b = synth_scene(spec)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_too_many_classes(self):
        with pytest.raises(ConfigError):
            SynthSpec(classes=8, sites=4)

    def test_angular_separability_witness(self):
        # the scene's premise: direction classifies perfectly, distance does not
        spec = SynthSpec(height=32, width=32, bands=16, classes=5, sites=10,
                         gain_lo=0.5, gain_hi=1.5, seed=3)
        cube, labels = synth_scene(spec)
        flat = cube.values.reshape(-1, spec.bands).astype(np.float64)
        truth = labels.ids.reshape(-1).astype(int)
        endmembers = np.stack([flat[truth == c].mean(axis=0) for c in range(1, 6)])
        unit = lambda m: m / np.linalg.norm(m, axis=-1, keepdims=True)
        by_cos = (unit(flat) @ unit(endmembers).T).argmax(axis=1) + 1
        assert (by_cos == truth).all()
        d2 = ((flat[:, None, :] - endmembers[None]) ** 2).sum(axis=2)
        by_euclid = d2.argmin(axis=1) + 1
        assert (by_euclid == truth).mean() < 1.0


class TestExportMap:
    def test_all_zero_black(self, tmp_path):
        path = str(tmp_path / "map.ppm")
        export_map(np.zeros((2, 3), dtype=np.uint16), path, num_classes=4)
        blob = open(path, "rb").read()
        assert blob.startswith(b"P6\n3 2\n255\n")
        assert blob[len(b"P6\n3 2\n255\n"):] == b"\x00" * 18

    def test_single_class_red_hue(self, tmp_path):
        path = str(tmp_path / "map.ppm")
        export_map(np.ones((2, 2), dtype=np.uint16), path, num_classes=1)
        r, g, b = class_color(1, 1)
        assert r > g and r > b  # hue 0 is red-dominant
        blob = open(path, "rb").read()
        payload = blob.split(b"\n", 3)[3]
        assert payload == bytes([r, g, b]) * 4

    def test_round_trip_reference_reader(self, tmp_path):
        # independent minimal PPM parser
        path = str(tmp_path / "map.ppm")
        preds = np.array([[0, 1], [2, 2]], dtype=np.uint16)
        export_map(preds, path, num_classes=2)
        with open(path, "rb") as f:
            assert f.readline() == b"P6\n"
            w, h = map(int, f.readline().split())
            assert int(f.readline()) == 255
            pixels = np.frombuffer(f.read(), dtype=np.uint8).reshape(h, w, 3)
        for i in range(2):
            for j in range(2):
                assert tuple(pixels[i, j]) == class_color(preds[i, j], 2)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.02, 0.3), st.floats(0.02, 0.3), st.integers(0, 2**31))
def test_split_proportions_property(train_frac, val_frac, seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(1, 5, size=(20, 20)).astype(np.uint16)
    labels = LabelMap(ids)
    train, _, _ = stratified_split(labels, SplitSpec(train_frac, val_frac, seed=seed))
    flat = ids.reshape(-1)
    for c in np.unique(flat):
        n_c = (flat == c).sum()
        got = (flat[train] == c).sum()
        assert abs(got - train_frac * n_c) <= 1.0
