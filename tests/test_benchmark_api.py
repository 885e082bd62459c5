"""The benchmark's workloads still run on this tree.

``perfbench/workloads.py`` is loaded as it is, and each workload is set up
at a fixed seed, runs one op of each kind, and must report no failures from
``check`` and ``finish``. A change that breaks a name, signature or option
the benchmark uses fails here, not only in a full benchmark run.

``golden.json`` pins the summaries of every ``summarize_long`` request at
two seeds, and the best validation loss and trained-weight digest of one
``train_short`` and one ``train_long`` op. A change that moves one must
update the file and say why.
"""

import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
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


def _environment():
    """What the trained weights' bits depend on besides the code: Python,
    numpy and the BLAS thread pin (the CPU's gemm kernels too, unrecorded)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


@pytest.mark.parametrize("case", sorted(GOLDEN["train"]["cases"]))
def test_train_results_are_the_golden_ones(case, tmp_path):
    # best_val_loss holds to 1e-9 relative at any BLAS thread count; the
    # weights' digest moves with it, so it must match only where the
    # recorded environment does, and is printed elsewhere
    name, seed = case.split("/")
    expected = GOLDEN["train"]["cases"][case]
    workload = workloads.make(name, int(seed))
    workload.setup(tmp_path)
    [op] = workload.ops()
    digest = workload.check(op, op.run()).digest
    assert workload.result.best_val_loss == pytest.approx(expected["best_val_loss"], rel=1e-9)
    if _environment() == GOLDEN["train"]["environment"]:
        assert digest == expected["weights_sha256"]
    else:
        print(f"{case}: weights {digest}, recorded in {GOLDEN['train']['environment']}")
