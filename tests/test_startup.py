"""Each command loads only the modules it runs.

`import linepack` loads none of the package's modules: the package lists
each public name once under its module, and reads a module the first time
one of its names, or the module's own name, is looked up (PEP 562).
`linepack.cli` imports `etf`, `exact` and `scheme`, and each command the
rest of what it runs.  The commands run as `python -m linepack.cli` runs
them, through `runpy`, in a fresh process, so `cli` itself is `__main__`.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linepack

ROOT = Path(__file__).resolve().parents[1]

# argv[1] is where the loaded `linepack` and `numpy` modules go as JSON, at
# exit; the rest is the command
RECORD = """
import atexit, json, runpy, sys
out, sys.argv = sys.argv[1], ["linepack", *sys.argv[2:]]
atexit.register(lambda: open(out, "w").write(json.dumps(
    sorted(m for m in sys.modules if m.split(".")[0] in ("linepack", "numpy")))))
"""
RUN_CLI = RECORD + 'runpy.run_module("linepack.cli", run_name="__main__")\n'


def _loaded(tmp_path, code: str, *args: str) -> tuple[int, set]:
    """The exit code of a fresh process that runs `code` with the arguments
    `args`, and the `linepack` and `numpy` modules it had loaded when it ended."""
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, str(out), *args], env=env,
                          capture_output=True, timeout=120)
    return done.returncode, set(json.loads(out.read_text()))


def _linepack(modules: set) -> set:
    return {m for m in modules if m.split(".")[0] == "linepack"}


def test_import_linepack_loads_no_submodule_and_no_numpy(tmp_path):
    code, modules = _loaded(tmp_path, RECORD + "import linepack\n")
    assert code == 0 and modules == {"linepack"}


@pytest.fixture(scope="module")
def built_n3(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    code, modules = _loaded(tmp, RUN_CLI, "build", "--n", "3", "--out", str(tmp / "n3"))
    assert code == 0
    return tmp / "n3", modules


def test_build_loads_no_character_table_and_no_search(built_n3):
    _, modules = built_n3
    assert _linepack(modules) == {"linepack", *(f"linepack.{m}" for m in (
        "bgroup", "etf", "exact", "gf2n", "heis", "scheme"))}


def test_verify_gram_file_loads_only_etf_exact_and_scheme(built_n3, tmp_path):
    out, _ = built_n3
    code, modules = _loaded(tmp_path, RUN_CLI, "verify", "--in", str(out / "gram.mat"))
    assert code == 0
    assert _linepack(modules) == {"linepack", "linepack.etf", "linepack.exact", "linepack.scheme"}


def test_each_exported_name_is_its_modules_object_and_in_its_all():
    assert linepack.__all__ == sorted(set(linepack.__all__))
    for name in linepack.__all__:
        obj = getattr(linepack, name)
        owner = sys.modules[obj.__module__]
        assert owner.__name__.startswith("linepack.") and getattr(owner, name) is obj, name
        assert name in owner.__all__, name


def test_each_module_name_resolves_to_its_module():
    for path in sorted((ROOT / "src" / "linepack").glob("*.py")):
        if path.stem != "__init__":
            assert getattr(linepack, path.stem) is importlib.import_module(f"linepack.{path.stem}")


def test_an_unknown_name_raises_attribute_error():
    for name in ("no_such_name", "numpy", "FrameFactors"):
        with pytest.raises(AttributeError, match=name):
            getattr(linepack, name)
    assert not hasattr(linepack, "no_such_name")
    with pytest.raises(ImportError):
        from linepack import no_such_name  # noqa: F401
