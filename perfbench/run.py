"""Benchmark of the mdpp pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``. The load is a closed loop with
one client in one process, BLAS pinned to one thread (the pin is recorded).
A run sets up its inputs several times, then cycles through the workload's
ops until the next one would overrun ``--seconds`` (at least one op of each
kind), then checks the outputs. A fixed reference computation is timed
between ops (see ``Reference``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

- ``setup_s``: median over set-ups of a fresh interpreter's start and
  imports, plus synth, feature-file writes and model init.
- ``calibrated_frames_per_s``: view-frames (M*N per sequence, and per epoch
  for training) per second of op time, with each op's wall time scaled by
  the machine speed the reference measured around it; the median op time of
  each kind, weighted by the kind's share of the ops. For the train
  workloads an op is one ``training.train`` call, validation included; for
  ``summarize_long`` an op is one request (half supervised, half not). The
  unscaled ``frames_per_s`` and per-kind latencies are in the detail line.
- ``f1``: mean frame F1 of the supervised summaries against the planted
  truth (the trained model on the held-out collection; the supervised
  requests of ``summarize_long``).
- ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` runs the first ops of the workload (``trace_ops``) in whole
passes, each op untraced and traced in alternating order, and reports the
per-layer metrics: self seconds and computed work counts per traced op (per
set-up for ``synth.generate`` and ``io.write_feature_file``),
``trace.overhead_frac`` (traced op wall / untraced op wall - 1) and
``trace.unaccounted_frac`` (traced op wall not covered by top-level spans;
the run fails its checks if this exceeds the overhead plus 0.01). Layers a
workload bypasses report 0.

Which end-to-end metric each layer should move, and on which workload:

- ``encoder.*``, ``training.*``: throughput on train_short (LSTM time loops)
  and train_long; ``encoder.forward`` also on summarize_long (supervised).
- ``dpp.log_prob`` .. ``dpp.kernel_grads_from_L``, ``dpp.items``,
  ``multi_dpp.backprop_streams``: throughput and ``peak_rss_mb`` on
  train_long most, train_short a little.
- ``multi_dpp.build_joint_kernel``: train_long; summarize_long (unsupervised).
- ``kts.*``, ``summarizer.*``, ``evaluation.*``, ``io.read_feature_file``,
  ``io.write_summary``, ``dpp.greedy_map``: throughput on summarize_long
  (greedy MAP on its unsupervised half only); the train workloads bypass them.
- ``synth.generate``, ``io.write_feature_file``: ``setup_s`` everywhere.

Every run prints an environment block and the detail before the last line,
which is the JSON result, and writes everything, spans included, under
``perfbench/out/``. Output digests and work counts are recorded per code
version, workload and seed in ``perfbench/out/determinism.json``; a later
run of the same code and seed must reproduce them.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MDPP_THREADS")
SETUP_REPEATS = 5
TRACED_MODULES = (
    "dpp", "encoder", "evaluation", "io", "kts", "multi_dpp", "summarizer", "synth", "training",
)
SETUP_LAYERS = ("synth.generate", "io.write_feature_file")
REFERENCE_REPEATS = 10
# the reference's duration on the machine the benchmark was defined on
# (a 2-core Intel Xeon VM); calibrated times are scaled to it
REFERENCE_SECONDS = 0.07
IMPORT_PROBE = "import numpy, mdpp.evaluation, mdpp.io, mdpp.summarizer, mdpp.synth, mdpp.training"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mdpp benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "mdpp").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(np, args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "code_sha256": code_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Reference:
    """A fixed computation timed between ops, to express op times in units
    of the machine's current speed.

    The host's speed drifts by up to a third within seconds and between
    runs, so an op's wall time divided by the reference times around it
    varies far less than the wall time alone. The mix follows the three
    kinds of work mdpp does: recurrent time loops over small matrices (the
    LSTM), interpreter-bound loops of small numpy ops over prefix sums (KTS)
    and dense factorizations (the N x N DPP terms).
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.steps = rng.normal(size=(200, 3, 16))
        self.wx = rng.normal(size=(64, 16)) / 4.0
        self.wh = rng.normal(size=(64, 16)) / 4.0
        self.prefix = np.cumsum(rng.normal(size=(300, 16)), axis=0)
        a = rng.normal(size=(300, 300))
        self.spd = a @ a.T + 300.0 * np.eye(300)
        self.seconds()  # warm up

    def seconds(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(REFERENCE_REPEATS):
            h = np.zeros((3, 16))
            for x in self.steps:
                z = x @ self.wx.T + h @ self.wh.T
                h = np.tanh(z[:, :16]) / (1.0 + np.exp(-z[:, 16:32]))
            for end in range(1, len(self.prefix), 2):
                diff = self.prefix[end] - self.prefix[np.arange(0, end)]
                np.einsum("jd,jd->j", diff, diff).min()
            for _ in range(3):
                np.linalg.cholesky(self.spd)
        return time.perf_counter() - t0


def import_seconds() -> float:
    """Wall time of a fresh interpreter that starts and imports numpy and mdpp."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def atomic_write_json(path: Path, doc) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_ops(workload, seconds, tracer, error_type, reference):
    """Run the workload's ops in order, cycling, until the next op would
    overrun ``seconds`` (at least one op of each kind).

    A traced run repeats whole passes over the first ``workload.trace_ops``
    ops instead, each op untraced and traced, so that its per-op work counts
    are the same in every run of a seed. Returns one record per execution.
    """
    ops = workload.ops()
    if tracer:
        ops = ops[: workload.trace_ops]
    kinds = {op.kind for op in ops}
    records = []
    walls = {}  # kind -> op walls so far, to predict the next op
    started = time.perf_counter()
    ref_before = reference.seconds()
    for count in itertools.count():
        op_index = count % len(ops)
        op = ops[op_index]
        modes = ("untraced",)
        if tracer:
            # alternate which goes first, so warm-up does not bias the overhead
            modes = ("traced", "untraced") if count % 2 else ("untraced", "traced")
        for mode in modes:
            if mode == "traced":
                tracer.op = count
                tracer.install()
            error = None
            t0 = time.perf_counter()
            try:
                output = op.run()
            except error_type as exc:
                output, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if mode == "traced":
                tracer.uninstall()
                tracer.op = None
            ref_after = reference.seconds()
            checked = workload.check(op, output) if error is None else None
            walls.setdefault(op.kind, []).append(wall)
            records.append({
                "op": op_index, "kind": op.kind, "mode": mode, "frames": op.frames,
                "wall_s": wall, "ref_s": (ref_before + ref_after) / 2, "error": error,
                "digest": checked.digest if checked else None,
                "failures": checked.failures if checked else [error],
                "f1": checked.f1 if checked else None,
            })
            ref_before = ref_after
        nxt = ops[(count + 1) % len(ops)]
        if tracer:
            if op_index < len(ops) - 1:
                continue
            predicted = sum(statistics.median(walls[o.kind]) for o in ops) * len(modes)
        else:
            if kinds - walls.keys():
                continue
            predicted = statistics.median(walls[nxt.kind])
        if time.perf_counter() - started + predicted > seconds:
            return records


def tail(values):
    """The highest percentile with at least 10 samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return {"n": n, "percentile": None, "value_s": None}
    return {"n": n, "percentile": 100.0 * (n - 10) / n, "value_s": sorted(values)[n - 11]}


def end_to_end(workload, records, setup_s, finish_detail):
    # median time per op kind, weighted by the kind's share of the workload's
    # ops, keeps one disturbed op from moving the throughput
    ops = workload.ops()

    def throughput(seconds_of):
        medians = {
            kind: statistics.median(seconds_of(r) for r in records if r["kind"] == kind)
            for kind in {op.kind for op in ops}
        }
        return sum(op.frames for op in ops) / sum(medians[op.kind] for op in ops)

    frames_per_s = throughput(lambda r: r["wall_s"])
    calibrated = throughput(lambda r: r["wall_s"] / r["ref_s"] * REFERENCE_SECONDS)
    detail = dict(finish_detail)
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)
    for kind, rs in by_kind.items():
        walls = [r["wall_s"] for r in rs]
        detail[f"{kind}_latency_s_p50"] = statistics.median(walls)
        detail[f"{kind}_latency_s_tail"] = tail(walls)
        f1s = [r["f1"] for r in rs if r["f1"] is not None]
        if f1s:
            detail[f"{kind}_f1"] = statistics.fmean(f1s)
    detail["frames_per_s"] = frames_per_s
    detail["reference_s_p50"] = statistics.median(r["ref_s"] for r in records)
    f1 = finish_detail["test_f1"] if "train" in by_kind else detail["sup_f1"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_s, "calibrated_frames_per_s": calibrated, "f1": f1,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, detail


def per_layer(tracer, records, setups, per_layer_names):
    traced = [r for r in records if r["mode"] == "traced"]
    untraced = [r for r in records if r["mode"] == "untraced"]
    n_ops = len(traced)
    op_self, top_level = tracer.self_times(lambda op: op is not None and op != "setup")
    setup_self, _ = tracer.self_times(lambda op: op == "setup")
    traced_wall = sum(r["wall_s"] for r in traced)
    untraced_wall = sum(r["wall_s"] for r in untraced)
    values = {}
    for name, total in op_self.items():
        values[f"{name}.self_s"] = total / n_ops
    for name in SETUP_LAYERS:
        values[f"{name}.self_s"] = setup_self.get(name, 0.0) / setups
    for name, total in tracer.counts.items():
        values[name] = total / n_ops
    picks = tracer.counts.get("dpp.greedy_map.picks", 0.0)
    budget = tracer.counts.get("dpp.greedy_map.budget", 0.0)
    values["dpp.greedy_map.fill_ratio"] = picks / budget if budget else 0.0
    modules = {}
    for name, total in op_self.items():
        module = name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + total
    for module in TRACED_MODULES:
        if module != "synth":
            values[f"{module}.self_s"] = modules.get(module, 0.0) / n_ops
        values[f"{module}.errors"] = float(tracer.errors.get(module, 0))
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    values["trace.unaccounted_frac"] = (traced_wall - top_level) / traced_wall
    shares = {module: total / traced_wall for module, total in sorted(modules.items())}
    metrics = {name: float(values.get(name, 0.0)) for name in per_layer_names}
    failures = []
    allowed = max(values["trace.overhead_frac"], 0.0) + 0.01
    if values["trace.unaccounted_frac"] > allowed:
        failures.append(
            f"layer self times leave {values['trace.unaccounted_frac']:.4f} of the traced "
            f"wall unaccounted (allowed {allowed:.4f})"
        )
    counts = {name: values[name] for name in sorted(tracer.counts)}
    return metrics, {"module_shares": shares, "all_layers": values}, counts, failures


def determinism_failures(key, digests, counts) -> list[str]:
    """Compare this run's outputs and counts with earlier runs of the same
    code, workload and seed, then record them."""
    path = OUT / "determinism.json"
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    entry = book.setdefault(key, {"outputs": {}})
    failures = []
    for op, digest in digests.items():
        if entry["outputs"].setdefault(op, digest) != digest:
            failures.append(f"op {op} output differs from an earlier run of the same code and seed")
    if counts is not None:
        if entry.setdefault("counts", counts) != counts:
            failures.append("work counts differ from an earlier run of the same code and seed")
    atomic_write_json(path, book)
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mdpp" / "__init__.py").is_file():
        print(f"mdpp sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import mdpp
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(np, args)
    print("env " + json.dumps(env), flush=True)

    modules = [getattr(mdpp, name) for name in TRACED_MODULES]
    tracer = tracing.Tracer(modules, mdpp.MdppError) if args.trace else None
    workload = workloads.make(args.workload, args.seed)

    # set-up: interpreter start and imports (a fresh process each time), then
    # synth, file writes and model init
    setup_times = []
    for _ in range(SETUP_REPEATS):
        imports = 0.0 if tracer else import_seconds()
        if tracer:
            tracer.op = "setup"
            tracer.install()
        t0 = time.perf_counter()
        workload.setup(workdir)
        setup_times.append(imports + time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
            tracer.op = None
    setup_s = statistics.median(setup_times)

    records = run_ops(workload, args.seconds, tracer, mdpp.MdppError, Reference(np))
    finish_detail, run_failures = workload.finish()

    # a repeated op must reproduce its first output
    first = {}
    for r in records:
        if r["digest"] is not None and first.setdefault(r["op"], r["digest"]) != r["digest"]:
            r["failures"].append("output differs from an earlier run of the same op")

    if tracer:
        metrics, detail, counts, trace_failures = per_layer(
            tracer, records, SETUP_REPEATS, [m["name"] for m in spec["per_layer"]]
        )
        run_failures += trace_failures
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, detail = end_to_end(workload, records, setup_s, finish_detail)
        counts = None
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        detail["setup_runs_s"] = setup_times

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    key = f"{env['code_sha256'][:16]}/{args.workload}/{args.seed}"
    digests = {str(i): first[i] for i in sorted(first)}
    run_failures += determinism_failures(key, digests, counts)

    failed_ops = [r for r in records if r["failures"]]
    attempted = len(records)
    detail.update({
        "ops_attempted": attempted,
        "ops_failed": len(failed_ops),
        "error_rate": len(failed_ops) / attempted,
        "run_failures": run_failures,
        "computed_counts": counts,
    })
    correct = not failed_ops and not run_failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "result": result, "detail": detail, "ops": records}
    if tracer:
        record["spans"] = tracer.spans
    atomic_write_json(OUT / f"{stem}.json", record)

    for failure in run_failures + [f for r in failed_ops for f in r["failures"]]:
        print(f"check failed: {failure}", file=sys.stderr)
    print("detail " + json.dumps(detail, default=str), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
