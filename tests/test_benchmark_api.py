"""The benchmark's workloads still run on this tree.

``perfbench/workloads.py`` is loaded as it is, and each workload is set up
at a fixed seed, runs one op of each kind, and must report no failures from
``check`` and ``finish``. A change that breaks a name, signature or option
the benchmark uses fails here, not only in a full benchmark run.

``golden.json`` pins the summaries of every ``summarize_long`` request at
two seeds, and the best validation loss and trained-weight digest of one
``train_short`` and one ``train_long`` op. The training ops run in a fresh
interpreter at one BLAS thread, so the weights' digest is compared whatever
thread pin the test run has. A change that moves one must update the file
and say why.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_one_op_of_each_kind_checks_clean(name, tmp_path):
    workload = workloads.make(name, 1)
    workload.setup(tmp_path)
    first_of_kind = {}
    for op in workload.ops():
        first_of_kind.setdefault(op.kind, op)
    for op in first_of_kind.values():
        checked = workload.check(op, op.run())
        assert checked.failures == [], (op.kind, checked.failures)
        assert checked.digest
    _, failures = workload.finish()
    assert failures == []


GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())


@pytest.mark.parametrize("seed", sorted(GOLDEN["summarize_long"], key=int))
def test_summarize_long_digests_are_the_golden_ones(seed, tmp_path):
    # sha256 of repr(summary.selections) for every request, in request order;
    # selections are discrete, so they are compared exactly
    workload = workloads.make("summarize_long", int(seed))
    workload.setup(tmp_path)
    digests = [workload.check(op, op.run()).digest for op in workload.ops()]
    assert digests == GOLDEN["summarize_long"][seed]


# one training op in a fresh interpreter: argv is the workloads file, the
# workload's name and seed, and a scratch directory; prints the weights'
# digest, best_val_loss and what the digest depends on besides the code
_TRAIN_SCRIPT = """
import importlib.util, json, os, platform, sys
from pathlib import Path

import numpy as np

spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads
spec.loader.exec_module(workloads)
workload = workloads.make(sys.argv[2], int(sys.argv[3]))
workload.setup(Path(sys.argv[4]))
[op] = workload.ops()
print(json.dumps({
    "digest": workload.check(op, op.run()).digest,
    "best_val_loss": workload.result.best_val_loss,
    "environment": {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    },
}))
"""

# the weights' bits also depend on the BLAS thread count (and on the CPU's
# gemm kernels, unrecorded), so the op runs at one thread of every pool
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@pytest.mark.parametrize("case", sorted(GOLDEN["train"]["cases"]))
def test_train_results_are_the_golden_ones(case, tmp_path):
    # best_val_loss holds to 1e-9 relative at any BLAS thread count; the
    # weights' digest must match wherever Python and numpy are the
    # recorded ones, and is printed elsewhere
    name, seed = case.split("/")
    expected = GOLDEN["train"]["cases"][case]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _TRAIN_SCRIPT,
         str(WORKLOADS), name, seed, str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["best_val_loss"] == pytest.approx(expected["best_val_loss"], rel=1e-9)
    if result["environment"] == GOLDEN["train"]["environment"]:
        assert result["digest"] == expected["weights_sha256"]
    else:
        print(f"{case}: weights {result['digest']} in {result['environment']}, "
              f"recorded in {GOLDEN['train']['environment']}")
