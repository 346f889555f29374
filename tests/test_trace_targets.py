"""The package still offers every name that the perfbench tracer wraps.

``perfbench/tracing.py`` swaps the functions and methods listed in its
``TARGETS`` for timing wrappers.  A target that has moved is only reported
as absent, and the traced run loses every metric that needs it.  This
reads ``TARGETS`` from that file (without importing it) and resolves each
entry the way ``Tracer._install_one`` does.
"""
import ast
import importlib
import inspect
from pathlib import Path

import sparseborn
from sparseborn import _kernels

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def trace_targets():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


def resolves(owner: str, attr: str) -> bool:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if class_name:
        cls = getattr(module, class_name, None)
        return cls is not None and attr in vars(cls)
    return getattr(module, attr, None) is not None


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert targets
    missing = [(owner, attr) for _, owner, attr in targets if not resolves(owner, attr)]
    assert missing == []


def test_kernel_arguments_keep_their_positions():
    # the tracer's kernel hook unpacks 6 (real) or 9 (phase) positional arguments
    assert len(inspect.signature(_kernels.accum_real).parameters) == 6
    assert len(inspect.signature(_kernels.accum_complex).parameters) == 9


def test_kernel_backend_is_reported():
    assert sparseborn.KERNEL_BACKEND == "python"
