"""The benchmark's span tracer must still find every attribute it wraps.

``perfbench/traced.py`` replaces the attributes listed in its ``WRAPPED``
table through ``owner.__dict__[attr]``; a rename or a move to another class
or module makes ``--trace 1`` fail with ``KeyError``.  It knows two kinds of
attribute: a plain function, which it replaces, and a
``functools.cached_property``, whose ``func`` it wraps.  The wrapped run
itself must also complete and record its spans.
"""

import functools
import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import linepack.cli  # binds `linepack`, whose submodules load on first use, as in traced.py
from test_cli import VERIFY_GRAM_N5_SHA256

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


def _traced_run(tmp_path, *argv) -> tuple[subprocess.CompletedProcess, set]:
    """One traced run and its span names."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(TRACED), str(spans), "--", *argv],
                          env=env, capture_output=True, timeout=120)
    return done, {span[2] for span in json.loads(spans.read_text())["spans"]}


def _traced(tmp_path, *argv) -> tuple[int, set]:
    """The exit code and the span names of one traced run."""
    done, names = _traced_run(tmp_path, *argv)
    return done.returncode, names


def test_traced_build_completes_with_its_spans(tmp_path):
    # the wrapped run, not only the names: a wrapper that breaks a caller shows here
    code, names = _traced(tmp_path, "build", "--n", "3", "--out", str(tmp_path / "out"))
    assert code == 0
    assert {"gf2n.tables", "heis.rep_init", "etf.synth", "etf.certify", "etf.write"} <= names
    # build at n <= 5 reads no character table, so none is built; a certified
    # frame needs no Parseval product, and the factored walk no frame Gram
    assert not {"bgroup.classes", "chartab.build", "etf.parseval", "etf.gram_frame"} & names
    # a frame that fails its Welch pattern runs the Parseval check, in its span
    frame = tmp_path / "out" / "frame.mat"
    lines = frame.read_text().splitlines()
    lines[0] = lines[0].replace("scale_log2_num=-5", "scale_log2_num=-7")
    frame.write_text("\n".join(lines) + "\n")
    code, names = _traced(tmp_path, "verify", "--in", str(frame))
    assert code == 1
    assert {"etf.read", "etf.certify", "etf.parseval"} <= names


def test_traced_sample_run_completes_with_its_spans(tmp_path):
    # the benchmark's sampled workload: the table routes and the comparison
    # run in their spans, and the frame route is the factored walk, no frame Gram
    code, names = _traced(tmp_path, "verify", "--n", "7", "--mode", "sample",
                          "--samples", "100000", "--seed", "1")
    assert code == 0
    assert {"chartab.build", "etf.gram_character", "etf.gram_closed_form", "etf.compare",
            "etf.certify"} <= names
    assert "etf.gram_frame" not in names


def test_traced_gram_file_run_completes_with_its_spans(tmp_path):
    # the benchmark's Gram-file workload, verify --in on a fresh n = 5 gram.mat:
    # the read, the certificate and its comparisons run in their spans, and
    # the output is the pinned one
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "linepack.cli", "build", "--n", "5", "--out", str(out)],
                   env=env, capture_output=True, timeout=120, check=True)
    done, names = _traced_run(tmp_path, "verify", "--in", str(out / "gram.mat"),
                              "--threads", "1")
    assert done.returncode == 0
    assert {"etf.read", "etf.certify", "etf.compare"} <= names
    assert hashlib.sha256(done.stdout).hexdigest() == VERIFY_GRAM_N5_SHA256
