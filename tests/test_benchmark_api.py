"""The benchmark's workloads still run on this tree.

``perfbench/workloads.py`` is loaded as it is, and each workload is set up
at a fixed seed, runs one op of each kind, and must report no failures from
``check`` and ``finish``. A change that breaks a name, signature or option
the benchmark uses fails here, not only in a full benchmark run.
"""

import importlib.util
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
