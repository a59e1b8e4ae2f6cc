"""The bit-identity harness in bitdump.py: both modes on one variant."""

import numpy as np

import bitdump


def test_dump_then_compare_reports_a_changed_array(tmp_path, capsys):
    a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
    assert bitdump.main(["dump", a, "--variants", "dp"]) == 0
    with np.load(a) as f:
        arrays = dict(f)
    # 5 norm modes x 3 head counts x 3 positional modes x 2 chunk budgets,
    # and a training run and its two predict calls per positional mode
    assert len({key.rsplit(":", 1)[0] for key in arrays}) == 90 + 3 + 3
    assert bitdump.main(["compare", a, a]) == 0
    # predict's blocks, the node's chunks and the ops' sample slices on two
    # threads give the bits of one; add is the variant whose node backward
    # sums its parameter gradients over the chunks, cs2 the benchmark's
    serial, threaded = str(tmp_path / "serial.npz"), str(tmp_path / "threaded.npz")
    for path, threads in ((serial, "1"), (threaded, "2")):
        assert bitdump.main(["dump", path, "--variants", "cs2,dp,add",
                             "--predict-threads", threads]) == 0
    assert bitdump.main(["compare", serial, threaded]) == 0
    key = "dp:both:H3:sinusoidal:budget=1:w_c"
    old = arrays[key].flat[0]
    arrays[key] = arrays[key].copy()
    arrays[key].flat[0] = new = np.nextafter(old, np.inf)  # one ulp
    np.savez(b, **arrays)
    capsys.readouterr()
    assert bitdump.main(["compare", a, b]) == 1
    ulp, rel = new - old, (new - old) / max(abs(old), abs(new))
    assert capsys.readouterr().out.splitlines() == [
        f"differs: {key}: max abs diff {ulp:.3e}, max rel diff {rel:.3e}",
        f"1 of {len(arrays)} arrays differ"]
