"""The benchmark's span tracer must still find every attribute it wraps.

``perfbench/traced.py`` replaces the attributes listed in its ``WRAPPED``
table through ``owner.__dict__[attr]``; a rename or a move to another class
or module makes ``--trace 1`` fail with ``KeyError``.  It knows two kinds of
attribute: a plain function, which it replaces, and a
``functools.cached_property``, whose ``func`` it wraps.  The wrapped run
itself must also complete and record its spans.
"""

import functools
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import linepack.cli  # binds `linepack` with every submodule loaded, as traced.py does

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


def _wrapped_attributes():
    """(dotted name, the owner's ``__dict__`` entry or None) for each WRAPPED row."""
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.WRAPPED
    for module_name, class_name, attr, _, _ in module.WRAPPED:
        owner = getattr(linepack, module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        yield f"{module_name}.{class_name or ''}.{attr}", owner.__dict__.get(attr)


def test_every_traced_attribute_resolves():
    missing = [name for name, value in _wrapped_attributes() if value is None]
    assert not missing, missing


def test_every_traced_attribute_is_a_kind_the_tracer_wraps():
    wrong = [f"{name}: {type(value).__name__}" for name, value in _wrapped_attributes()
             if not (inspect.isfunction(value) or isinstance(value, functools.cached_property))]
    assert not wrong, wrong


def test_traced_build_completes_with_its_spans(tmp_path):
    # the wrapped run, not only the names: a wrapper that breaks a caller shows here
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(TRACED), str(spans), "--",
                           "build", "--n", "3", "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    names = {span[2] for span in json.loads(spans.read_text())["spans"]}
    assert {"gf2n.tables", "heis.rep_init", "etf.synth", "etf.parseval", "etf.write"} <= names
    # build at n <= 5 reads no character table, so none is built
    assert not {"bgroup.classes", "chartab.build"} & names
