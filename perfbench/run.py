"""angleattn benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload train-cs2 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` runs the same workload under the out-of-tree tracer and
reports the per-layer metrics, plus the paper-size memory probe. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit. The exit code is 0 only when every correctness
check passed. Metric names and units come from ``BENCHMARK.json``.
"""

import time

T0 = time.perf_counter()  # process start, for setup_s; before any heavy import

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

# One BLAS thread, set before numpy loads and inherited by every child. On a
# shared 2-core machine OpenBLAS's second thread spin-waits whenever another
# process holds a core, which made predict 3-15x slower under contention;
# on an idle machine one thread is as fast for these small matrices.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 6  # setup-only processes per run, spread over its jobs, for the median setup_s
MIB = float(1 << 20)
OPS = ("matmul", "softmax_rows", "layer_norm", "gelu", "add", "tanh", "square",
       "l2_normalize_rows", "transpose", "dropout", "reshape")
LAYERS = ("tensor", "attention", "model", "train", "data")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_package():
    """Import angleattn from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "angleattn", "__init__.py")):
        fail(f"no angleattn sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import angleattn

    if os.path.dirname(os.path.dirname(os.path.abspath(angleattn.__file__))) != src:
        fail(f"angleattn was imported from {angleattn.__file__}, not from {src}")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads()}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:  # no /proc: not Linux
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workload(name, seed):
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir), workdir


def setup_sample(args):
    """Setup time of a fresh process that sets the workload up and exits."""
    out = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                          "--seed", str(args.seed), "--setup-only"],
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def timed_job(wl, ref_calls, region=None):
    """One job; ``ref_calls`` reference calls close each of its parts (0: none)."""
    from reference import Stopwatch

    t0 = time.perf_counter()
    watch = Stopwatch(ref_calls)
    if region is None:
        job = wl.job(watch)
    else:
        with region("job"):
            job = wl.job(watch)
    job.elapsed_s = time.perf_counter() - t0
    return job


def checked(wl, jobs, extra_failures=()):
    """(attempted, failed) operations; every failed check is printed."""
    failures = list(wl.check(jobs)) + list(extra_failures)
    attempted = sum(j.ops for j in jobs)
    failed = sum(n for n, _ in failures)
    if failures:
        failed = min(attempted, max(1, failed))
    for _, message in failures:
        print(f"CHECK FAILED: {message}")
    return attempted, failed


def end_to_end(args):
    """End-to-end metrics with nothing patched: (attempted, failed, metrics)."""
    wl, workdir = make_workload(args.workload, args.seed)
    try:
        wl.setup()
        setups = [time.perf_counter() - T0]
        jobs = []
        # closed loop: start another job while the last one's duration still fits;
        # setup samples sit between jobs so that they spread over the whole run
        while (len(jobs) < wl.min_jobs
               or sum(j.elapsed_s for j in jobs) + jobs[-1].elapsed_s <= args.seconds):
            jobs.append(timed_job(wl, wl.ref_calls))
            done = min(1.0, sum(j.elapsed_s for j in jobs) / args.seconds)
            while len(setups) - 1 < math.ceil(SETUP_SAMPLES * done):
                setups.append(setup_sample(args))
        while len(setups) - 1 < SETUP_SAMPLES:
            setups.append(setup_sample(args))
        attempted, failed = checked(wl, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    infer_px = sum(j.infer_px for j in jobs)
    batch_ms = [1000.0 * s for j in jobs for s in j.watch.part_seconds("infer")]
    batch_ref = [r for j in jobs for r in j.watch.part_refs("infer")]
    batch_px = [len(b) for j in jobs for b in j.batches]
    m = {"setup_s": (statistics.median(setups), "s"),
         "wall_ref": (statistics.median(j.watch.refs() for j in jobs), "ref"),
         "infer_px_per_ref": (statistics.median(px / r for px, r in zip(batch_px, batch_ref)),
                              "px/ref"),
         "peak_rss_mib": (peak_rss_mib(), "MiB"),
         "wall_s": (statistics.median(j.wall_s for j in jobs), "s"),
         "infer_px_per_s": (infer_px / sum(j.infer_s for j in jobs), "px/s"),
         "ref_ms": (1000.0 * statistics.median(r for j in jobs for r in j.watch.samples), "ms"),
         "batch_ms.p50": (statistics.median(batch_ms), "ms"),
         "batch_ms.p90": (percentile(batch_ms, 90), "ms"),
         "batch_ref.p50": (statistics.median(batch_ref), "ref"),
         "batch_ref.p90": (percentile(batch_ref, 90), "ref"),
         "batch.samples": (len(batch_ms), "count")}
    if jobs[0].train_s is not None:
        m["train_s"] = (statistics.median(j.train_s for j in jobs), "s")
        m["train_ref"] = (statistics.median(j.watch.refs("train") for j in jobs), "ref")
        m["oa"] = (jobs[0].oa, "fraction")
    m["fail_frac"] = (failed / attempted, "fraction")
    m["jobs"] = (len(jobs), "count")
    m["setup_s.samples"] = (len(setups), "count")
    for i, j in enumerate(jobs):
        m[f"job{i}.wall_s"] = (j.wall_s, "s")
        m[f"job{i}.wall_ref"] = (j.watch.refs(), "ref")
    return attempted, failed, m


def traced(args):
    """Per-layer metrics from a traced run: (attempted, failed, metrics, spans)."""
    import memprobe
    from tracer import Tracer

    tracer = Tracer()
    wl, workdir = make_workload(args.workload, args.seed)
    try:
        tracer.install()
        try:
            with tracer.region("setup"):
                wl.setup()
        finally:
            tracer.uninstall()
        setup_spans = list(tracer.spans)
        mem, refused = memprobe.probe_all()
        start = time.perf_counter()
        plain = timed_job(wl, 0)  # untraced reference for the overhead and the OA check
        runs = []
        tracer.install()
        try:
            while not runs or time.perf_counter() - start + runs[-1][0].wall_s <= args.seconds:
                before, first = tracer.counts.copy(), len(tracer.spans)
                job = timed_job(wl, 0, tracer.region)
                runs.append((job, tracer.spans[first:], tracer.counts - before))
        finally:
            tracer.uninstall()
        leftovers = Tracer.leftovers()
        attempted, failed = checked(wl, [plain] + [job for job, _, _ in runs],
                                    [(1, f"tracer left {name} patched") for name in leftovers]
                                    + [(1, f"memory probe refused: {r}") for r in refused])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    per_run = [layer_metrics(setup_spans + spans, counts, job.wall_s, plain.wall_s)
               for job, spans, counts in runs]
    m = {name: (statistics.median(r[name][0] for r in per_run), per_run[0][name][1])
         for name in per_run[0]}
    m.update({name: (value, "MiB") for name, value in mem.items()})
    m["trace.jobs"] = (len(runs), "count")
    return attempted, failed, m, tracer.spans


def layer_metrics(spans, counts, wall_s, plain_wall_s):
    """Per-layer metrics of one traced job (plus the setup it ran after)."""
    from tracer import span_table, train_step_seconds

    table = span_table(spans)

    def incl(*names):
        return 1000.0 * sum(table[n][1] for n in names if n in table)

    def self_ms(*names):
        return 1000.0 * sum(table[n][2] for n in names if n in table)

    def calls(name):
        return table[name][0] if name in table else 0

    fwd = [n for n in table if n.count(".") == 1 and n.startswith("tensor.")]
    bwd = [n for n in table if n.startswith("tensor.bwd.")]
    samples = max(1, counts["samples"])
    m = {}
    for op in OPS:
        m[f"tensor.fwd_ms.{op}"] = (self_ms(f"tensor.{op}"), "ms")
        m[f"tensor.bwd_ms.{op}"] = (self_ms(f"tensor.bwd.{op}"), "ms")
        m[f"tensor.ms.{op}"] = (m[f"tensor.fwd_ms.{op}"][0] + m[f"tensor.bwd_ms.{op}"][0], "ms")
    m["tensor.fwd_ms.other"] = (self_ms(*(n for n in fwd if n[7:] not in OPS)), "ms")
    m["tensor.bwd_ms.other"] = (self_ms(*(n for n in bwd if n[11:] not in OPS)), "ms")
    m["tensor.fwd_ms"] = (self_ms(*fwd), "ms")
    m["tensor.bwd_ms"] = (self_ms(*bwd), "ms")
    m["tensor.backward_ms"] = (incl("tensor.Tensor.backward"), "ms")
    m["tensor.trace_ms"] = (incl("tensor.Tape.trace"), "ms")
    m["tensor.calls"] = (sum(calls(n) for n in fwd), "count")
    m["tensor.out_mib_per_sample"] = (counts["out_bytes"] / MIB / samples, "MiB")
    m["tensor.tracked_frac_infer"] = (counts["infer_tracked"] / max(1, counts["infer_nodes"]),
                                      "fraction")

    attn_fwd = incl("attention.multi_head_attention")
    attn_bwd = 1000.0 * counts["attn_bwd_s"]
    m["attention.fwd_ms"] = (attn_fwd, "ms")
    m["attention.bwd_ms"] = (attn_bwd, "ms")
    m["attention.calls"] = (calls("attention.multi_head_attention"), "count")
    m["attention.score_ms"] = (incl("attention.score"), "ms")
    m["attention.attend_ms"] = (incl("attention.attend"), "ms")
    m["attention.share"] = ((attn_fwd + attn_bwd) / (1000.0 * wall_s), "fraction")
    m["attention.score_mib_per_sample"] = (counts["score_bytes"] / MIB / samples, "MiB")

    m["model.forward_ms"] = (incl("model.batched_forward"), "ms")
    m["model.block_ms"] = (incl("model.encoder_block"), "ms")
    m["model.mlp_ms"] = (incl("model.encoder_block") - attn_fwd, "ms")
    m["model.tokenize_ms"] = (incl("model.tokenize_patch"), "ms")
    m["model.ckpt_ms"] = (incl("model.save_checkpoint", "model.load_checkpoint"), "ms")

    steps = train_step_seconds(spans)
    train_ids = {s[0] for s in spans if s[2] == "train.train"}
    val_ms = 1000.0 * sum(end - start for _, parent, name, start, end in spans
                          if name == "train.evaluate" and parent in train_ids)
    m["train.steps"] = (calls("train.AdamW.step"), "count")
    m["train.step_ms"] = (1000.0 * statistics.median(steps) if steps else 0.0, "ms")
    m["train.loss_ms"] = (incl("train.label_smoothed_ce"), "ms")
    m["train.clip_ms"] = (incl("train.clip_gradients"), "ms")
    m["train.optim_ms"] = (incl("train.AdamW.step"), "ms")
    m["train.val_ms"] = (val_ms, "ms")
    m["train.val_share"] = (val_ms / incl("train.train") if train_ids else 0.0, "fraction")
    m["train.predict_ms"] = (incl("train.predict"), "ms")

    m["data.patch_ms"] = (incl("data.extract_patch"), "ms")
    m["data.patches"] = (calls("data.extract_patch"), "count")
    m["data.synth_ms"] = (incl("data.synth_scene"), "ms")
    m["data.normalize_ms"] = (incl("data.normalize_bands"), "ms")
    m["data.noise_ms"] = (incl("data.inject_noise"), "ms")
    m["data.split_ms"] = (incl("data.stratified_split"), "ms")
    m["data.io_ms"] = (incl("data.load_cube", "data.load_labels", "data.save_cube",
                            "data.save_labels"), "ms")
    m["data.export_ms"] = (incl("data.export_map"), "ms")

    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (self_ms(*(n for n in table if n.startswith(layer + "."))), "ms")
    m["trace.uncovered_ms"] = (self_ms("job"), "ms")
    m["trace.overhead_frac"] = (wall_s / plain_wall_s - 1.0, "fraction")
    return m


def write_outputs(args, kind, env, metrics, spans=None):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{kind}-{args.workload}-seed{args.seed}")
    with open(stem + ".json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "environment": env,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  f, indent=1, sort_keys=True)
    if spans is not None:
        with open(stem + "-spans.csv", "w") as f:
            f.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in spans:
                f.write(f"{sid},{parent},{name},{start - T0:.9f},{end - T0:.9f}\n")
    return stem


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print its setup time and exit")
    args = parser.parse_args(argv)
    import_package()
    from workloads import HELD_OUT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if args.setup_only:
        wl, workdir = make_workload(args.workload, args.seed)
        try:
            wl.setup()
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        attempted, failed, metrics, spans = traced(args)
    else:
        (attempted, failed, metrics), spans = end_to_end(args), None
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} held_out_seed={HELD_OUT_SEED} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    stem = write_outputs(args, "trace" if args.trace else "e2e", env, metrics, spans)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}; details in {os.path.relpath(stem, ROOT)}.*")
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        fail(f"declared metrics not measured: {', '.join(missing)}", code=1)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {d["name"]: {"value": metrics[d["name"]][0], "unit": d["unit"]}
                          for d in declared}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
