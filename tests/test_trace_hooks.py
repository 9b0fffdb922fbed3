"""The benchmark's span tracer must still find every attribute it wraps.

``perfbench/traced.py`` replaces the attributes listed in its ``WRAPPED``
table through ``owner.__dict__[attr]``; a rename or a move to another class
or module makes ``--trace 1`` fail with ``KeyError``.
"""

import importlib.util
from pathlib import Path

import linepack.cli  # binds `linepack` with every submodule loaded, as traced.py does

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_traced_attribute_resolves():
    wrapped = _wrapped()
    assert wrapped
    missing = []
    for module_name, class_name, attr, _, _ in wrapped:
        owner = getattr(linepack, module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        if attr not in owner.__dict__:
            missing.append(f"{module_name}.{class_name or ''}.{attr}")
    assert not missing, missing
