"""Run one ``linepack`` command in-process with spans around its layers.

Usage: python3 perfbench/traced.py SPANS_JSON -- <linepack arguments>

The wrappers are installed by replacing module and class attributes after
``import linepack.cli``; nothing under ``src/`` is edited.  Scalar field
primitives (``mul``, ``square``, ``cube``, ``pow``, ``trace``) are left
unwrapped because they run millions of times; their time counts as self
time of the wrapped caller.  Only ``FieldContext.inv`` is wrapped among
them, since its call count is a named metric.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time


def _gram_macs(args):
    frame = args[0]
    return 4 * frame.cols * frame.rows * frame.cols


def _parseval_macs(args):
    frame = args[0]
    return 4 * frame.rows * frame.cols * frame.rows


def _matmul_macs(args):
    a, b = args
    return 4 * a.shape[0] * a.shape[1] * b.shape[1]


def _entries(args):
    return int(args[0].re.size)


def _file_bytes(args):
    return os.path.getsize(args[0])


# (module, class or None, attribute, span name, work counter or None)
WRAPPED = [
    ("gf2n", "FieldContext", "__init__", "gf2n.field", None),
    ("gf2n", "FieldContext", "inv", "gf2n.inv", None),
    ("gf2n", "FieldContext", "trace_table", "gf2n.tables", None),
    ("gf2n", "FieldContext", "mul_table", "gf2n.tables", None),
    ("gf2n", "FieldContext", "square_table", "gf2n.tables", None),
    ("gf2n", "FieldContext", "cube_table", "gf2n.tables", None),
    ("gf2n", "FieldContext", "inverse_cube_table", "gf2n.tables", None),
    ("bgroup", "GroupContext", "conjugacy_classes", "bgroup.classes", None),
    ("bgroup", "GroupContext", "class_of_element", "bgroup.classes", None),
    ("bgroup", "GroupContext", "inverse_product_index_grid", "bgroup.index_grid", None),
    ("bgroup", "GroupContext", "inverse_product_index_matrix", "bgroup.index_grid", None),
    ("heis", "RepContext", "__init__", "heis.rep_init", None),
    ("heis", "RepContext", "_rep_x0", "heis.rep_init", None),
    ("heis", "RepContext", "rep_twisted", "heis.rep_twisted", None),
    ("chartab", None, "build_character_table", "chartab.build", None),
    ("chartab", None, "linear_characters", "chartab.build", None),
    ("chartab", None, "nonlinear_characters", "chartab.build", None),
    ("chartab", "CharacterTable", "verify", "chartab.verify", None),
    ("scheme", "GaussianRationalMatrix", "__matmul__", "scheme.matmul", _matmul_macs),
    ("scheme", "GaussianRationalMatrix", "canonical", "scheme.canonical", None),
    ("etf", None, "synthesize_frame", "etf.synth", None),
    ("etf", None, "_synthesize_columns", "etf.synth", None),
    ("etf", None, "gram_from_frame", "etf.gram_frame", _gram_macs),
    ("etf", None, "parseval_defect", "etf.parseval", _parseval_macs),
    ("etf", None, "gram_character", "etf.gram_character", None),
    ("etf", None, "gram_closed_form", "etf.gram_closed_form", None),
    ("etf", None, "first_mismatch", "etf.compare", _entries),
    ("etf", None, "verify_etf", "etf.certify", None),
    ("etf", None, "verify_frame", "etf.certify", None),
    ("etf", None, "verify_gram", "etf.certify", None),
    ("etf", None, "_certify_gram", "etf.certify", None),
    ("etf", None, "three_way_sampled", "etf.certify", None),
    ("etf", None, "write_frame_file", "etf.write", _file_bytes),
    ("etf", None, "write_gram_file", "etf.write", _file_bytes),
    ("etf", None, "read_matrix_file", "etf.read", _file_bytes),
    ("cli", None, "main", "cli", None),
    ("cli", None, "cmd_build", "cli", None),
    ("cli", None, "cmd_verify", "cli", None),
]


class Recorder:
    """Keeps every span in memory; one thread, so one stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._ids = itertools.count()

    def wrap(self, fn, name, work):
        spans, open_, ids, clock = self.spans, self._open, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = open_[-1] if open_ else None
            open_.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                open_.pop()
                spans.append([sid, parent, name, start, clock(), 0])
                raise
            end = clock()
            open_.pop()
            spans.append([sid, parent, name, start, end, work(args) if work else 0])
            return result

        return traced

    def install(self, package) -> None:
        for module_name, class_name, attr, name, work in WRAPPED:
            owner = getattr(package, module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            current = owner.__dict__[attr]
            if isinstance(current, functools.cached_property):
                current.func = self.wrap(current.func, name, work)
            else:
                setattr(owner, attr, self.wrap(current, name, work))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    import linepack
    import linepack.cli
    import_s = time.perf_counter() - start
    recorder = Recorder()
    recorder.install(linepack)
    code = linepack.cli.main(cli_args)
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump({"import_s": import_s, "exit_code": code, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
