"""Self-tests of the benchmark itself (not of angleattn).

Run from the repository root with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The file is deliberately not named ``test_*.py``, so the package's own
test run does not collect it.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from reference import Stopwatch  # noqa: E402
from tracer import Tracer, span_table, train_step_seconds  # noqa: E402

from angleattn import attention, data, model  # noqa: E402
from angleattn import train as training  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# every metric that README.md's tables list must be measured
DOCUMENTED_END_TO_END = ["setup_s", "wall_ref", "infer_px_per_ref", "peak_rss_mib", "wall_s",
                         "infer_px_per_s", "ref_ms", "train_s", "train_ref", "batch_ms.p50",
                         "batch_ms.p90", "batch_ref.p50", "batch_ref.p90", "oa", "fail_frac"]
DOCUMENTED_PER_LAYER = (
    [f"tensor.{kind}.{op}" for kind in ("fwd_ms", "bwd_ms") for op in run.OPS]
    + ["tensor.backward_ms", "tensor.trace_ms", "tensor.calls", "tensor.out_mib_per_sample",
       "tensor.tracked_frac_infer",
       "attention.fwd_ms", "attention.bwd_ms", "attention.calls", "attention.score_ms",
       "attention.attend_ms", "attention.share", "attention.score_mib_per_sample",
       "model.forward_ms", "model.block_ms", "model.mlp_ms", "model.tokenize_ms",
       "model.ckpt_ms",
       "train.steps", "train.step_ms", "train.loss_ms", "train.clip_ms", "train.optim_ms",
       "train.val_ms", "train.val_share",
       "data.patch_ms", "data.patches", "data.synth_ms", "data.normalize_ms", "data.noise_ms",
       "data.split_ms", "data.io_ms", "data.export_ms", "trace.overhead_frac"])
DOCUMENTED_MEMORY = [f"mem.mib_per_sample.{v}.{m}" for v in ("cs2", "dp", "add")
                for m in ("train", "infer")]


def tiny_run(tracer=None):
    """Train and evaluate a very small model, traced if a tracer is given; returns OA."""
    cube, labels = data.synth_scene(data.SynthSpec(height=16, width=16, bands=8, classes=3,
                                                   sites=6, seed=0))
    cube = data.inject_noise(data.normalize_bands(cube), 20.0, 3)
    splits = data.stratified_split(labels, data.SplitSpec(0.2, 0.1, seed=3))
    attn = attention.AttentionConfig(model_dim=8, heads=2, variant="cs2")
    cfg = model.ModelConfig(bands=8, num_classes=3, patch_size=3, model_dim=8, depth=1,
                            heads=2, mlp_dim=16, attention=attn)
    tcfg = training.TrainConfig(epochs=2, batch_size=16, seed=3)
    if tracer is not None:
        tracer.install()
    try:
        params, _, _ = training.train(cfg, cube, labels, splits, tcfg)
        oa = training.evaluate(params, cfg, cube, labels, splits[2]).oa
    finally:
        if tracer is not None:
            tracer.uninstall()
    return oa


def package_bindings():
    """Identity of every attribute of every loaded angleattn module and class."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "angleattn" or name.startswith("angleattn.")):
            continue
        for attr, obj in vars(mod).items():
            seen[(name, attr)] = id(obj)
            if isinstance(obj, type) and obj.__module__ == name:
                for meth, raw in vars(obj).items():
                    seen[(name, attr, meth)] = id(raw)
    return seen


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_names_and_units_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[key]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)

    def test_documented_and_declared_per_layer_metrics_are_measured(self):
        tracer = Tracer()
        tiny_run(tracer)
        measured = run.layer_metrics(tracer.spans, tracer.counts, 1.0, 1.0)
        for name in DOCUMENTED_PER_LAYER:
            self.assertIn(name, measured)
        for m in self.spec["per_layer"]:
            if not m["name"].startswith("mem."):
                self.assertIn(m["name"], measured)
                self.assertEqual(measured[m["name"]][1], m["unit"], m["name"])

    def test_memory_probe_names(self):
        import memprobe

        names = [f"mem.mib_per_sample.{v}.{m}" for v in memprobe.VARIANTS
                 for m in memprobe.MODES]
        self.assertEqual(sorted(names), sorted(DOCUMENTED_MEMORY))
        declared = {m["name"] for m in self.spec["per_layer"]}
        self.assertTrue(set(DOCUMENTED_MEMORY) <= declared)


class TracerHygiene(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        before = package_bindings()
        tracer = Tracer()
        tiny_run(tracer)
        self.assertEqual(Tracer.leftovers(), [])
        self.assertEqual(package_bindings(), before)
        self.assertGreater(len(tracer.spans), 100)

    def test_traced_and_untraced_runs_give_identical_oa(self):
        self.assertEqual(tiny_run(Tracer()), tiny_run())

    def test_self_time_and_steps_from_spans(self):
        spans = [(1, 0, "train.train", 0.0, 10.0),
                 (2, 1, "data.extract_patch", 1.0, 2.0),
                 (3, 1, "model.batched_forward", 2.0, 4.0),
                 (4, 3, "tensor.matmul", 2.5, 3.0),
                 (5, 1, "train.AdamW.step", 4.0, 5.0),
                 (6, 1, "train.evaluate", 5.0, 7.0),
                 (7, 1, "model.batched_forward", 8.0, 9.0),
                 (8, 1, "train.AdamW.step", 9.0, 9.5)]
        table = span_table(spans)
        self.assertEqual(table["train.train"], (1, 10.0, 10.0 - 1.0 - 2.0 - 1.0 - 2.0 - 1.0 - 0.5))
        self.assertEqual(table["model.batched_forward"], (2, 3.0, 2.5))
        self.assertEqual(train_step_seconds(spans), [4.0, 1.5])

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile([7.0], 90), 7.0)


class Reference(unittest.TestCase):
    def test_stopwatch_divides_each_part_by_the_samples_around_it(self):
        watch = Stopwatch(0)
        watch.parts = [("load", 1.0), ("infer", 4.0), ("infer", 6.0)]
        watch.samples = [0.010, 0.010, 0.030, 0.030]
        self.assertEqual(watch.seconds(), 11.0)
        self.assertEqual(watch.seconds("infer"), 10.0)
        self.assertEqual(watch.part_seconds("infer"), [4.0, 6.0])
        self.assertAlmostEqual(watch.refs("load"), 100.0)
        self.assertEqual([round(r, 9) for r in watch.part_refs("infer")], [200.0, 200.0])
        self.assertAlmostEqual(watch.refs(), 500.0)

    def test_stopwatch_samples_around_every_lap(self):
        watch = Stopwatch(1)
        watch.lap("a")
        watch.lap("b", calls=2)
        self.assertEqual([label for label, _ in watch.parts], ["a", "b"])
        self.assertEqual(len(watch.samples), 3)
        self.assertTrue(all(s > 0 for s in watch.samples))
        off = Stopwatch(0)
        off.lap("a", calls=1)
        self.assertEqual(off.samples, [])

    def test_reference_kernel_does_not_use_angleattn(self):
        import reference

        with open(reference.__file__) as f:
            self.assertNotIn("angleattn", f.read().split('"""')[2])


class Command(unittest.TestCase):
    def test_end_to_end_output_contract(self):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                              "map-paper", "--seed", "5", "--seconds", "1", "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = [m["name"] for m in json.load(f)["end_to_end"]]
        self.assertEqual(list(result["metrics"]), declared)
        printed = {line.split(" = ")[0] for line in lines if " = " in line}
        for name in DOCUMENTED_END_TO_END:
            if name not in ("train_s", "train_ref", "oa"):  # reported on the train-* workloads
                self.assertIn(name, printed)

    def test_unknown_workload_exits_nonzero_without_a_result(self):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                              "nope", "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
