import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linepack.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_n3(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "build", "--n", "3", "--out", str(out))
    assert code == 0
    cert = json.loads(stdout)
    assert cert["verdict"] == "OPTIMAL"
    assert cert["m"] == 28 and cert["numVectors"] == 64
    assert cert["offDiagModulusSquared"] == "1/256"
    for name in ("frame.mat", "gram.mat", "certificate.json", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["welch_sq"] == "1/256"
    assert manifest["ordering"] == "lex-xy"
    assert manifest["d_order"] == "gamma-asc"
    assert manifest["modulus"] == 0b1011
    header = (out / "frame.mat").read_text().splitlines()[0]
    assert "rows=28" in header and "cols=64" in header


def test_build_rejects_even_n(tmp_path, capsys):
    code, _, err = run(capsys, "build", "--n", "4", "--out", str(tmp_path))
    assert code == 2
    assert "n must be odd" in err


def test_build_rejects_out_of_range(tmp_path, capsys):
    code, _, err = run(capsys, "build", "--n", "11", "--out", str(tmp_path))
    assert code == 2


def test_build_json_errors(tmp_path, capsys):
    code, _, err = run(capsys, "--json-errors", "build", "--n", "4",
                       "--out", str(tmp_path))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "usage"


def test_build_determinism_across_threads(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "build", "--n", "3", "--out", str(a), "--threads", "1")[0] == 0
    assert run(capsys, "build", "--n", "3", "--out", str(b), "--threads", "4")[0] == 0
    for name in ("frame.mat", "gram.mat", "certificate.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_build_float_export(tmp_path, capsys):
    out = tmp_path / "f"
    code, _, _ = run(capsys, "build", "--n", "3", "--out", str(out), "--float-export")
    assert code == 0
    assert (out / "frame_float.npy").exists()


def test_build_float_export_beyond_n5_is_usage_error(tmp_path, capsys, monkeypatch):
    # the complex128 export of the n = 7 frame would be about 2 GB
    from linepack import cli

    def no_contexts(n):
        raise AssertionError("contexts built before the usage check")

    monkeypatch.setattr(cli, "_contexts", no_contexts)
    out = tmp_path / "n7"
    code, stdout, err = run(capsys, "build", "--n", "7", "--out", str(out), "--float-export")
    assert (code, stdout) == (2, "")
    assert "--float-export" in err
    assert not out.exists()


def test_build_default_out_dir_env(tmp_path, capsys, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("LINEPACK_OUT", str(target))
    code, _, _ = run(capsys, "build", "--n", "3")
    assert code == 0
    assert (target / "certificate.json").exists()


def test_build_empty_out_dir_env_is_unset(tmp_path, capsys, monkeypatch):
    # an empty $LINEPACK_OUT falls back to ./linepack_n<N>, not the cwd
    monkeypatch.setenv("LINEPACK_OUT", "")
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "build", "--n", "3")
    assert code == 0
    assert (tmp_path / "linepack_n3" / "certificate.json").exists()
    assert not (tmp_path / "certificate.json").exists()


def test_build_n5(tmp_path, capsys):
    out = tmp_path / "n5"
    code, stdout, _ = run(capsys, "build", "--n", "5", "--out", str(out))
    assert code == 0
    cert = json.loads(stdout)
    assert cert["verdict"] == "OPTIMAL"
    assert cert["m"] == 496 and cert["numVectors"] == 1024
    assert cert["offDiagModulusSquared"] == "1/4096"
    header = (out / "frame.mat").read_text().splitlines()[0]
    assert "rows=496" in header and "cols=1024" in header
    for name, digest in BUILD_N5_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    code, stdout, _ = run(capsys, "verify", "--in", str(out / "gram.mat"))
    assert code == 0
    assert hashlib.sha256(stdout.encode("ascii")).hexdigest() == VERIFY_GRAM_N5_SHA256


# sha256 of the `build --n 5` content files and of `verify --in gram.mat` stdout,
# the same references the benchmark checks its n = 5 runs against
BUILD_N5_SHA256 = {
    "frame.mat": "975b80bb6ae7387987a2264cf40834fbbf30d851af34645a1f610e6cf31ef84a",
    "gram.mat": "f9663feaa7f8650b87261210fb1567ef44a0457c6933629d800a90dbd60dca6c",
    "certificate.json": "805750fcc79ae86bdbf97a18caa5b2ff3dcc4c1d41212a1e0fe2ff1504cea36a",
}
VERIFY_GRAM_N5_SHA256 = "912e7c9e4b6cdb2293405fbff58c9091057bbc3641fb1166137cc5fb814c432c"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def built_n3(tmp_path_factory):
    out = tmp_path_factory.mktemp("built") / "n3"
    assert main(["build", "--n", "3", "--out", str(out)]) == 0
    return out


# sha256 of the `build --n 3` content files; a change to the synthesizer or
# the writers that alters a byte shows here
BUILD_N3_SHA256 = {
    "frame.mat": "946bd21ae29e1c3ba4f067c7f41f5567a673a0d24611e264eab534a504cf7519",
    "gram.mat": "5994e2ea0fd2d94a689566f9885ea05337ac55148076f7827c325575781666c1",
    "certificate.json": "07ec02d9e5f77b309e4a9312c3f0f53d2a53ab108acc724fb30cfff7aafce8ea",
}


def test_build_n3_content_hashes_pinned(built_n3):
    for name, digest in BUILD_N3_SHA256.items():
        assert hashlib.sha256((built_n3 / name).read_bytes()).hexdigest() == digest, name


# sha256 of the `chartab --n N` stdout, as printed by the per-value table
# that the array-backed one replaced
CHARTAB_SHA256 = {
    3: "78f75e063f01a32650837d3a4d4ae2484b7c104285835aef5a9243d89d5d7ec9",
    5: "1d6acd6ef36930d6759ec52d77035388cd2b201368d01a7de1db4577d2b8a00d",
    7: "b6633b043fbf69981b2d19c32cdba3d829d261dad5f3680e322246b27ad20042",
}


@pytest.mark.parametrize("n", sorted(CHARTAB_SHA256))
def test_chartab_json_pinned(capsys, n):
    code, stdout, _ = run(capsys, "chartab", "--n", str(n))
    assert code == 0
    assert hashlib.sha256(stdout.encode("ascii")).hexdigest() == CHARTAB_SHA256[n]


def test_verify_full_by_degree(capsys):
    code, stdout, _ = run(capsys, "verify", "--n", "3", "--mode", "full")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["threeWay"] is True
    assert payload["verdict"] == "OPTIMAL"


def test_verify_sample_by_degree(capsys):
    code, stdout, _ = run(capsys, "verify", "--n", "3", "--mode", "sample",
                          "--samples", "400", "--seed", "7")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["agree"] and payload["pattern_ok"]


@pytest.mark.parametrize("rows", [[("closedForm", 5)], [("character", 62), ("closedForm", 5)]])
def test_verify_full_reports_the_whole_matrix_mismatch(capsys, monkeypatch, group3, rep3,
                                                      table3, rows):
    # each (route, u) makes that table route's row one more at the element u,
    # so its whole matrix differs wherever inv(g) h = u, first at (0, u).
    # The full route compares the slab rows (x, 0) and their mirrors, and
    # each pair reports what the whole matrices give
    from linepack import etf
    from linepack.scheme import GaussianRationalMatrix

    def flipped(route, u):
        def call(group, *args):
            row = route(group, *args)
            re = row.re.astype(np.int64)
            re[u] += 1
            return GaussianRationalMatrix(re, row.im, row.den)
        return call

    first, full_at = np.arange(group3.order), group3.inverse_product_index_matrix
    routes = {"character": lambda group, at: etf.gram_character(group, table3, at),
              "closedForm": etf.gram_closed_form}
    for name, u in rows:
        routes[name] = flipped(routes[name], u)
    want = etf._route_mismatches({
        "frame": etf.gram_from_frame(etf.synthesize_frame(group3, rep3)),
        **{name: etf._gathered(route(group3, first), full_at) for name, route in routes.items()}})
    assert want == {"frame_vs_character": (0, 62) if len(rows) > 1 else None,
                    "frame_vs_closedForm": (0, 5), "character_vs_closedForm": (0, 5)}
    for name, u in rows:
        attr = {"character": "gram_character", "closedForm": "gram_closed_form"}[name]
        monkeypatch.setattr(etf, attr, flipped(getattr(etf, attr), u))
    code, stdout, err = run(capsys, "verify", "--n", "3", "--mode", "full")
    assert code == 1 and json.loads(stdout)["threeWay"] is False
    assert json.loads(stdout)["verdict"] == "OPTIMAL"
    assert f"gram routes disagree: {want}" in err


def test_verify_full_at_n9_passes_the_run_plan():
    # the factored walk holds no frame, so full is the mode at every n <= 9, and the default
    from linepack import cli

    for flags in (["--mode", "full"], []):
        args = cli._build_parser().parse_args(["verify", "--n", "9", *flags])
        assert cli._run_plan(args) == ("full", None, None)


def test_verify_beyond_n9_is_usage_error(capsys, monkeypatch):
    # refused before any context is built
    from linepack import cli

    def no_contexts(n):
        raise AssertionError("contexts built before the usage check")

    monkeypatch.setattr(cli, "_contexts", no_contexts)
    code, _, err = run(capsys, "verify", "--n", "11")
    assert code == 2
    assert "3 <= n <= 9" in err


# sha256 of the `verify --n` stdout, full at n = 3 and 5 and the sampled
# n = 7 check; any change to the certificate or the sampled report shows here
VERIFY_N_SHA256 = {
    ("--n", "3"): "30722f24bd255aabf8d56841a60477312b0f183db4627e2ee49992fcf790de8c",
    ("--n", "5"): "8d74dd469b265f21540de4da872e79ccbe2a64cef8d26bf0def3c08af4de8de5",
    ("--n", "7", "--mode", "sample", "--samples", "100000", "--seed", "1"):
        "b923d42e7275813278276e01c15ddc82dda14573e084edfbda7c15f3a2ffee2c",
}


@pytest.mark.parametrize("argv", sorted(VERIFY_N_SHA256), ids=" ".join)
def test_verify_n_stdout_pinned(capsys, argv):
    code, stdout, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert hashlib.sha256(stdout.encode("ascii")).hexdigest() == VERIFY_N_SHA256[argv]


# sha256 of `build --n 7`'s certificate.json: OPTIMAL over all 2^28 entries
BUILD_N7_CERTIFICATE_SHA256 = "10060dedd10407f0ee77255b7723a9086965f1ce124ed4867f9c89927605d771"


def test_verify_n7_certifies_every_entry_three_ways(capsys):
    # the default mode at n = 7 is the full route: the certificate build
    # --n 7 writes, with both table routes compared on all N^2 entries
    code, stdout, _ = run(capsys, "verify", "--n", "7")
    assert code == 0
    payload = json.loads(stdout)
    assert payload.pop("threeWay") is True and payload.pop("entries") == 16384 ** 2
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == BUILD_N7_CERTIFICATE_SHA256


@pytest.mark.parametrize("mode", ["full", "sample"])
@pytest.mark.parametrize("mutant", ["p", "sign", "swap"])
def test_verify_with_a_mutated_factor_form_is_a_violation(capsys, monkeypatch, mode, mutant):
    # a flipped P entry breaks the Welch pattern and the route comparison; a
    # flipped sign leaves a sign row off the centre's characters, which is
    # named; sign rows 0 and 1 swapped are still distinct characters, so the
    # walk certifies that frame, which the table routes do not describe
    from linepack import etf

    real = etf.frame_factors

    def flipped(group, rep):
        factors = real(group, rep)
        signs = factors.signs.copy()
        if mutant == "sign":
            signs[2, 5] = -signs[2, 5]
            return dataclasses.replace(factors, signs=signs)
        if mutant == "swap":
            return dataclasses.replace(factors, signs=signs[[1, 0, *range(2, len(signs))]])
        p_re = factors.p_re.copy()
        at = np.flatnonzero(p_re)[0]
        p_re.flat[at] = -p_re.flat[at]
        return dataclasses.replace(factors, p_re=p_re)

    monkeypatch.setattr(etf, "frame_factors", flipped)
    code, stdout, err = run(capsys, "verify", "--n", "5", "--mode", mode)
    payload = json.loads(stdout)
    assert code == 1
    if mode == "full":
        assert payload["verdict"] == ("OPTIMAL" if mutant == "swap" else "NOT_ETF")
        assert payload["threeWay"] is False
    else:
        assert payload["pattern_ok"] is (mutant == "swap") and payload["agree"] is False
    if mutant == "p":
        assert "parseval identity fails" in err
    elif mutant == "sign":
        assert "sign rows are not the centre's distinct nontrivial characters at [2, 5]" in err
    else:
        assert ("gram routes disagree" if mode == "full" else "sampled verification failed") in err


@pytest.mark.parametrize("mutant", ["p", "sign"])
def test_verify_n7_with_a_mutated_factor_form_names_its_defect_without_the_frame(
        capsys, monkeypatch, mutant):
    # the m x N frame is never built: the Parseval defect of a flipped P entry,
    # or of a flipped sign, is read from the factors
    from linepack import etf

    real = etf.frame_factors

    def flipped(group, rep):
        factors = real(group, rep)
        if mutant == "sign":
            signs = factors.signs.copy()
            signs[2, 5] = -signs[2, 5]
            return dataclasses.replace(factors, signs=signs)
        p_re = factors.p_re.copy()
        at = np.flatnonzero(p_re)[0]
        p_re.flat[at] = -p_re.flat[at]
        return dataclasses.replace(factors, p_re=p_re)

    def refuse(*args):
        raise AssertionError("the whole frame was built")

    monkeypatch.setattr(etf, "frame_factors", flipped)
    monkeypatch.setattr(etf.FrameFactors, "frame", refuse)
    monkeypatch.setattr(etf, "parseval_defect", refuse)
    code, stdout, err = run(capsys, "verify", "--n", "7")
    payload = json.loads(stdout)
    assert code == 1 and payload["verdict"] == "NOT_ETF"
    assert payload["crossChecks"]["parsevalDefect"] is not None
    failure = "parseval identity fails" if mutant == "p" else \
        "sign rows are not the centre's distinct nontrivial characters at [2, 5]"
    assert payload["failure"] == failure and failure in err


@pytest.mark.parametrize("flags", [
    ["--n", "3", "--mode", "full", "--samples", "5"],
    ["--n", "3", "--mode", "full", "--seed", "9"],
    ["--n", "3", "--seed", "9"],  # full is the default mode
    ["--in", "IN", "--samples", "5"],
    ["--in", "IN", "--seed", "1"],
    ["--in", "IN", "--mode", "full"],  # a file is certified in full, whatever the mode says
    ["--in", "IN", "--mode", "sample"],
    ["build", "--n", "3", "--samples", "5"],  # build certifies in full: it takes neither flag
    ["build", "--n", "3", "--seed", "9"],
    ["build", "--n", "5", "--samples", "5"],
    ["build", "--n", "5", "--seed", "9"],
])
def test_sample_flags_outside_sample_mode_are_usage_errors(built_n3, tmp_path, capsys, flags):
    command, *flags = flags if flags[0] == "build" else ["verify", *flags]
    out = tmp_path / "out"
    argv = [str(built_n3 / "frame.mat") if tok == "IN" else tok for tok in flags]
    argv += ["--out", str(out)] if command == "build" else []
    try:
        code = main([command, *argv])
    except SystemExit as exc:  # argparse refuses the flags build does not take
        code = exc.code
    stdout, err = capsys.readouterr()
    assert code == 2 and stdout == ""
    if command == "build":
        assert f"unrecognized arguments: {flags[-2]} {flags[-1]}" in err
        assert not out.exists()
    elif flags[-2] == "--mode":
        assert "--mode applies to --n only" in err
    else:
        assert f"{flags[-2]} applies to --mode sample only" in err


def test_verify_frame_file(built_n3, capsys):
    code, stdout, _ = run(capsys, "verify", "--in", str(built_n3 / "frame.mat"))
    assert code == 0
    assert json.loads(stdout)["verdict"] == "OPTIMAL"


def test_verify_gram_file(built_n3, capsys):
    code, stdout, _ = run(capsys, "verify", "--in", str(built_n3 / "gram.mat"))
    assert code == 0


def test_verify_tampered_frame(built_n3, tmp_path, capsys):
    lines = (built_n3 / "frame.mat").read_text().splitlines()
    tokens = lines[1].split(" ")
    re, im = tokens[0].split(";")
    tokens[0] = f"{-int(re)};{im}"
    lines[1] = " ".join(tokens)
    bad = tmp_path / "tampered.mat"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "verify", "--in", str(bad))
    assert code == 1
    assert "at entry (0, " in err  # coordinates of the violated identity


def test_verify_tampered_gram(built_n3, tmp_path, capsys):
    lines = (built_n3 / "gram.mat").read_text().splitlines()
    assert lines[1].startswith("7/16;0/1")
    lines[1] = lines[1].replace("7/16;0/1", "5/16;0/1", 1)
    bad = tmp_path / "tampered_gram.mat"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "verify", "--in", str(bad))
    assert code == 1
    assert "at entry" in err


def test_verify_non_hermitian_gram_names_the_check_and_entry(built_n3, tmp_path, capsys):
    # entry (0, 1) keeps its modulus and the trace stays 28; its mirror is left as it was
    lines = (built_n3 / "gram.mat").read_text().splitlines()
    tokens = lines[1].split(" ")
    assert tokens[1] == "-1/16;0/1"
    tokens[1] = "0/1;1/16"
    lines[1] = " ".join(tokens)
    bad = tmp_path / "non_hermitian.mat"
    bad.write_text("\n".join(lines) + "\n")
    code, stdout, err = run(capsys, "verify", "--in", str(bad))
    assert code == 1
    cert = json.loads(stdout)
    assert cert["failure"] == "Gram matrix is not Hermitian"
    assert cert["crossChecks"]["projectionDefect"] == [0, 1]
    assert "not Hermitian at entry (0, 1)" in err


def test_verify_parse_failure(tmp_path, capsys):
    bad = tmp_path / "garbage.mat"
    bad.write_text("hello\n")
    code, _, err = run(capsys, "verify", "--in", str(bad))
    assert code == 2


_HEAD = "LINEPACK-MATRIX v1 rows={} cols={} scale_log2_num={} scale_log2_den={}\n"


@pytest.mark.parametrize("content", [
    None,
    _HEAD.format(0, 1, 0, 1),
    _HEAD.format(1, 2, 0, 1) + "1/2;0/1 0/1;0/1\n",
    _HEAD.format(1, 1, 2, 2) + "1;0\n",
    _HEAD.format(1, 1, -2, 2) + "9223372036854775808;0\n",
    _HEAD.format(1, 3, 0, 1) + "1/4611686018427387904;0/1 1/3;0/1 1/5;0/1\n",
    b"\xff\xfe\n",
    _HEAD.format(1, 1, 0, 1) + "1/0;0/1\n",
    _HEAD.format(1, 1, -2, 2) + "1_0;0\n",
    _HEAD.format(1, 1, -2, 2) + "-9223372036854775808;0\n",
    _HEAD.format(1, 2, -2, 2) + "1;0  0;0\n",
    _HEAD.format(1, 18769302, -2, 2) + "1;0\n",
    _HEAD.format(1, 1, -2, 2) + "1" * 5000 + ";0\n",
    _HEAD.format(10 ** 12, 10 ** 12, -2, 2) + "1;0\n",
    _HEAD.format(2 ** 40, 1, -2, 2) + "1;0\n",
    _HEAD.format(1, 1, -62, 2) + "1;0\n",
], ids=["missing-file", "zero-rows", "non-square-gram", "positive-frame-scale",
        "frame-entry-beyond-int64", "gram-denominator-beyond-int64", "not-ascii",
        "zero-denominator", "underscore-digits", "frame-entry-int64-min",
        "double-space", "cols-beyond-the-row", "entry-with-5000-digits",
        "entries-beyond-the-file", "rows-beyond-the-file", "frame-scale-at-2**62"])
def test_verify_malformed_input_is_exit_2(tmp_path, capsys, content):
    path = tmp_path / "input.mat"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert "linepack: " in err


@pytest.mark.parametrize("content, code, message", [
    ("gram.mat", 0, ""),
    (_HEAD.format(10 ** 12, 10 ** 12, -2, 2) + "1;0\n", 2, "expected 1000000000000 rows, found 1"),
    (_HEAD.format(1, 10 ** 11, -2, 2) + "1;0\n", 2, "no memory for 1x100000000000 entries"),
], ids=["gram", "entries-beyond-the-array-limit", "entries-beyond-memory"])
def test_verify_in_reads_a_pipe(built_n3, capsys, content, code, message):
    # a pipe has no size to bound its header by, so the header alone sizes the result
    path = built_n3 / "gram.mat"
    data = path.read_bytes() if content == "gram.mat" else content.encode("ascii")
    r, w = os.pipe()  # each input fits the pipe's buffer, so it is written whole first
    os.write(w, data)
    os.close(w)
    try:
        got = run(capsys, "verify", "--in", f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert got[0] == code and message in got[2]
    if code == 0:
        assert got == run(capsys, "verify", "--in", str(path))


def test_verify_in_imports_neither_hashlib_nor_numpy_ma(built_n3):
    # hashlib loads OpenSSL and numpy.ma is large; only build's manifest hashes
    # files, and the reader finds the common denominator without np.unique
    code = ("import sys, linepack.cli as cli\n"
            f"assert cli.main(['verify', '--in', {str(built_n3 / 'gram.mat')!r}]) == 0\n"
            "print(sorted({'hashlib', 'numpy.ma'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    ["build", "--n", "3", "--out", "FILE"],
    ["srg", "--v", "16", "--k", "6", "--lambda", "2", "--mu", "2", "--out", "FILE"],
    ["gram", "--n", "3", "--out", "MISSING/x"],
    ["gram", "--n", "3", "--method", "closed-form,character", "--out", "DIR"],
    ["search", "--max-order", "10", "--out", "MISSING/x"],
    ["chartab", "--n", "3", "--out", "MISSING/x"],
], ids=["build", "srg", "gram", "gram-directory", "search", "chartab"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    # the path fails before the work: nothing is printed for a run that fails
    existing = tmp_path / "file"
    existing.write_text("")
    paths = {"FILE": str(existing), "DIR": str(tmp_path),
             "MISSING/x": str(tmp_path / "missing" / "x")}
    argv = [paths.get(tok, tok) for tok in argv]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert f"linepack: usage: {argv[-1]}" in err


@pytest.mark.parametrize("size", [1, 4])
def test_verify_all_zero_gram_is_not_etf(tmp_path, capsys, size):
    # a Hermitian projection of trace 0: no lines, so no Welch bound to meet
    row = " ".join(["0/1;0/1"] * size)
    path = tmp_path / "zero.mat"
    path.write_text(_HEAD.format(size, size, 0, 1) + f"{row}\n" * size)
    code, stdout, err = run(capsys, "verify", "--in", str(path))
    assert code == 1
    cert = json.loads(stdout)
    assert (cert["verdict"], cert["m"], cert["parseval"]) == ("NOT_ETF", 0, True)
    assert "degenerate" in cert["failure"] and "linepack: violation" in err


# a frame fails with the certificate and violation it had while the Parseval
# check ran before the Welch pattern: (sha256 of the stdout, the violation)
_FRAME_FAILURES = {
    "tight-non-etf": ("fcfa02172e1c2c99e92862aec978c3b48421d44811776bfe6e77a4e427e94354",
                      "off-diagonal modulus is not constant"),
    "flipped-entry": ("1053e280f93455956391a205da3ff538dbe639dffc36a2f63690ffbcd5377312",
                      "parseval identity fails at entry (0, 4)"),
    "header-scale": ("4e52391de56db176b0db1c66605874913d4f9eff40763ada27fc45ef68876a10",
                     "parseval identity fails at entry (0, 0)"),
}


def _failing_frame(built_n3, case: str) -> str:
    if case == "tight-non-etf":  # Parseval, and two off-diagonal moduli
        return _HEAD.format(2, 4, -1, 2) + "1;0 0;0 1;0 0;0\n0;0 1;0 0;0 1;0\n"
    lines = (built_n3 / "frame.mat").read_text().splitlines()
    if case == "header-scale":
        lines[0] = lines[0].replace("scale_log2_num=-5", "scale_log2_num=-7")
    else:
        tokens = lines[5].split(" ")
        assert tokens[0] == "1;0"
        tokens[0] = "-1;0"
        lines[5] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _parseval_calls(monkeypatch) -> list:
    from linepack import etf

    calls, defect = [], etf.parseval_defect
    monkeypatch.setattr(etf, "parseval_defect", lambda frame: calls.append(1) or defect(frame))
    return calls


@pytest.mark.parametrize("case", sorted(_FRAME_FAILURES))
def test_failing_frames_run_the_parseval_check_once(built_n3, tmp_path, capsys, monkeypatch,
                                                    case):
    path = tmp_path / "frame.mat"
    path.write_text(_failing_frame(built_n3, case))
    calls = _parseval_calls(monkeypatch)
    code, stdout, err = run(capsys, "verify", "--in", str(path))
    digest, violation = _FRAME_FAILURES[case]
    assert (code, len(calls)) == (1, 1)
    assert hashlib.sha256(stdout.encode("ascii")).hexdigest() == digest
    assert err == f"linepack: violation: {violation}\n"


@pytest.mark.parametrize("argv", [["verify", "--in", "FRAME"],
                                  ["verify", "--n", "3", "--mode", "full"],
                                  ["build", "--n", "3", "--out", "OUT"]])
def test_certified_frames_run_no_parseval_check(built_n3, tmp_path, capsys, monkeypatch, argv):
    # the Welch pattern proves the frame tight, so a success needs no second product
    paths = {"FRAME": str(built_n3 / "frame.mat"), "OUT": str(tmp_path / "out")}
    calls = _parseval_calls(monkeypatch)
    code, stdout, _ = run(capsys, *(paths.get(tok, tok) for tok in argv))
    assert (code, calls) == (0, [])
    assert json.loads(stdout)["parseval"] is True


_HEADER_FIELDS = ["rows", "cols", "scale_log2_num", "scale_log2_den"]
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2 ** 31), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2 ** 31), st.integers(0, 2 ** 31)),
    st.tuples(st.just("extra"), st.integers(0, 2 ** 31),
              st.sampled_from(["0", "1;0", "1/2;0/1", "1/0;0/1", ";", "/", "-", "x"])),
    st.tuples(st.just("header"), st.sampled_from(_HEADER_FIELDS),
              st.one_of(st.integers(-2 ** 70, 2 ** 70).map(str), st.integers(-70, 70).map(str),
                        st.sampled_from(["", "x", "1_0", None]))),
)


def _mutate(data: bytes, mutation) -> bytes:
    """One byte flip, truncated line, extra token or header edit (None drops the field)."""
    kind, at, arg = mutation
    if kind == "flip":
        at %= len(data)
        return data[:at] + bytes([arg]) + data[at + 1:]
    lines = data.split(b"\n")
    if kind == "truncate":
        line = lines[at % len(lines)]
        lines[at % len(lines)] = line[:arg % (len(line) + 1)]
    elif kind == "extra":
        lines[at % len(lines)] += b" " + arg.encode()
    else:
        key = f"{at}=".encode()
        lines[0] = b" ".join(t if not t.startswith(key) else key + arg.encode()
                             for t in lines[0].split(b" ")
                             if not (t.startswith(key) and arg is None))
    return b"\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["frame.mat", "gram.mat"]),
       mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_verify_mutated_matrix_file_is_never_a_crash(built_n3, name, mutations):
    data = (built_n3 / name).read_bytes()
    for mutation in mutations:
        data = _mutate(data, mutation)
    path = built_n3.parent / f"mutated-{name}"
    path.write_bytes(data)
    assert main(["verify", "--in", str(path)]) in (0, 1, 2)


def test_verify_header_with_a_huge_cols_is_a_parse_error(built_n3, capsys):
    # a header may state any cols: the reader allocates per-row tables only
    # once a row of that many entries is read, so this is a parse error, not
    # a MemoryError's exit 3
    path = built_n3.parent / "huge-cols-frame.mat"
    path.write_bytes(_mutate((built_n3 / "frame.mat").read_bytes(),
                             ("header", "cols", "1214059845793625344")))
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert err.startswith("linepack: parse") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "build"])
def test_samples_below_one_is_usage_error(tmp_path, capsys, monkeypatch, command):
    # build takes no --samples, which argparse refuses; verify's check comes
    # before any context is built
    from linepack import cli

    def no_contexts(n):
        raise AssertionError("contexts built before the usage check")

    monkeypatch.setattr(cli, "_contexts", no_contexts)
    extra = ["--n", "7", "--out", str(tmp_path)] if command == "build" \
        else ["--n", "3", "--mode", "sample"]
    try:
        code = main([command, "--samples", "0", *extra])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert ("unrecognized arguments: --samples 0" if command == "build"
            else "--samples must be at least 1") in err


@pytest.mark.parametrize("json_errors", [False, True])
def test_unexpected_exception_is_exit_3(tmp_path, capsys, monkeypatch, json_errors):
    from linepack import etf

    def broken(factors, *args):
        raise OverflowError("simulated int64 bound")

    monkeypatch.setattr(etf, "verify_factors", broken)
    flags = ["--json-errors"] if json_errors else []
    code, _, err = run(capsys, *flags, "build", "--n", "3", "--out", str(tmp_path))
    assert code == 3
    if json_errors:
        payload = json.loads(err)["error"]
        assert payload["type"] == "internal"
        assert "OverflowError: simulated int64 bound" in payload["message"]
    else:
        assert "linepack: internal: OverflowError" in err


def test_build_holds_neither_the_frame_nor_the_gram(tmp_path, capsys, monkeypatch):
    # the factored build certifies and writes from the factor form and its walk
    from linepack import etf

    def refuse(*args):
        raise AssertionError("the m x N frame or the N x N Gram was made")

    for name in ("synthesize_frame", "gram_from_frame", "_sampled_gram", "gram_tiles"):
        monkeypatch.setattr(etf, name, refuse)
    out = tmp_path / "n5"
    code, stdout, _ = run(capsys, "build", "--n", "5", "--out", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["coverage"] == {"route": "factored", "entries": 1024 ** 2, "values": 32 ** 3}
    assert manifest["outputs"] == ["frame.mat", "gram.mat", "certificate.json"]
    for name, digest in BUILD_N5_SHA256.items():
        assert manifest["sha256"][name] == digest
    assert "certificate" not in json.loads(stdout) and "coverage" not in json.loads(stdout)


@pytest.mark.parametrize("mutant", ["p", "sign"])
def test_build_with_a_flipped_factor_entry_is_a_violation(tmp_path, capsys, monkeypatch, mutant):
    # a sign flip in P breaks the Welch pattern of the walk and the Parseval
    # identity; a flipped sign table entry is refused before the walk runs.
    # Either way gram.mat is the Gram of the frame.mat written, as hashed
    from linepack import etf

    real = etf.frame_factors

    def flipped(group, rep):
        factors = real(group, rep)
        if mutant == "sign":
            signs = factors.signs.copy()
            signs[2, 5] = -signs[2, 5]
            return dataclasses.replace(factors, signs=signs)
        p_re = factors.p_re.copy()
        at = np.flatnonzero(p_re)[0]
        p_re.flat[at] = -p_re.flat[at]
        return dataclasses.replace(factors, p_re=p_re)

    monkeypatch.setattr(etf, "frame_factors", flipped)
    out = tmp_path / "bad"
    code, stdout, err = run(capsys, "build", "--n", "3", "--out", str(out))
    assert code == 1 and "certification failed" in err
    cert = json.loads((out / "certificate.json").read_text())
    assert cert == json.loads(stdout)
    assert cert["verdict"] == "NOT_ETF" and cert["crossChecks"]["parsevalDefect"] is not None
    if mutant == "p":
        assert cert["parseval"] is False and cert["failure"] == "parseval identity fails"
    else:
        assert cert["failure"] == \
            "sign rows are not the centre's distinct nontrivial characters at [2, 5]"
    frame = etf.read_matrix_file(out / "frame.mat")
    assert etf.read_matrix_file(out / "gram.mat") == etf.gram_from_frame(frame)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sha256"]["gram.mat"] == \
        hashlib.sha256((out / "gram.mat").read_bytes()).hexdigest()


def test_gram_beyond_the_int64_bound_is_exit_2(tmp_path, capsys):
    # parses, but G @ G has a 2^124 bound the kernel refuses to compute: the
    # file is beyond what the exact certificate supports, a parse error
    path = tmp_path / "huge.mat"
    path.write_text(_HEAD.format(1, 1, 0, 1) + "4611686018427387904/1;0/1\n")
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert "linepack: parse:" in err and "reaches 2**62" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("json_errors", [False, True])
def test_frame_beyond_the_int64_bound_is_exit_2(built_n3, tmp_path, capsys, json_errors):
    # the n = 3 frame with every entry times 300000001 and the header unchanged
    # parses, but its Gram tiles' bound 2 max^2 K reaches 2^62
    head, *rows = (built_n3 / "frame.mat").read_text().split("\n")
    scaled = [" ".join(";".join(str(300000001 * int(x)) for x in entry.split(";"))
                       for entry in row.split()) for row in rows]
    path = tmp_path / "scaled.mat"
    path.write_text("\n".join([head, *scaled]))
    flags = ["--json-errors"] if json_errors else []
    code, stdout, err = run(capsys, *flags, "verify", "--in", str(path))
    assert (code, stdout) == (2, "")
    assert "int64 bound 5760000038400000064 reaches 2**62" in err
    assert "Traceback" not in err
    if json_errors:
        assert json.loads(err)["error"]["type"] == "parse"


def test_threads_below_one_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "build", "--n", "3", "--out", str(tmp_path), "--threads", "0")
    assert code == 2
    assert "--threads" in err


def test_verify_requires_exactly_one_source(built_n3, capsys):
    assert run(capsys, "verify")[0] == 2
    assert run(capsys, "verify", "--n", "3",
               "--in", str(built_n3 / "frame.mat"))[0] == 2


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_stdout(capsys):
    code, stdout, err = run(capsys, "search", "--max-order", "64")
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0].startswith("n,k,l,m,lambda")
    assert "64,7,2,28,12,pass,," in lines
    assert "tuples" in err


def test_search_empty(capsys):
    code, stdout, err = run(capsys, "search", "--max-order", "2")
    assert code == 0
    assert stdout.strip().split("\n") == ["n,k,l,m,lambda,verdict_integrality,"
                                          "verdict_classes,verdict_chars"]
    assert "0 tuples" in err


def test_search_to_file_with_suzuki_filters(tmp_path, capsys):
    out = tmp_path / "tuples.csv"
    code, stdout, _ = run(capsys, "search", "--max-order", "64",
                          "--suzuki-filters", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().split("\n")
    suzuki = [r for r in rows if r.startswith("64,7,2,28")]
    assert suzuki == ["64,7,2,28,12,pass,pass,pass"]
    assert "tuples" in stdout


def test_search_bad_order(capsys):
    assert run(capsys, "search", "--max-order", "1")[0] == 2


def test_search_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "search", "--max-order", "500", "--out", str(a))
    run(capsys, "search", "--max-order", "500", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# chartab / gram / srg
# ---------------------------------------------------------------------------

def test_chartab_json(capsys):
    code, stdout, _ = run(capsys, "chartab", "--n", "3")
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload["characters"]) == 22
    assert payload["orthogonality"] == {"rows": "exact", "columns": "exact"}


def test_gram_methods_agree(capsys):
    code, stdout, _ = run(capsys, "gram", "--n", "3",
                          "--method", "closed-form,character")
    assert code == 0
    assert stdout.strip() == "AGREE (4096 entries)"
    code, stdout, _ = run(capsys, "gram", "--n", "3",
                          "--method", "closed-form,character,frame")
    assert code == 0
    assert stdout.strip() == "AGREE (4096 entries)"


def test_gram_frame_route_reads_no_index_grid(capsys, monkeypatch):
    # only the table routes gather at inv(g) h; the frame route never builds the N x N grid
    from linepack import bgroup

    def no_grid(self):
        raise AssertionError("index grid read by the frame route")

    monkeypatch.setattr(bgroup.GroupContext, "inverse_product_index_matrix", property(no_grid))
    code, stdout, _ = run(capsys, "gram", "--n", "3", "--method", "frame")
    assert (code, stdout.strip()) == (0, "OK (4096 entries)")


@pytest.mark.parametrize("argv", [
    ["build", "--n", "3", "--out", "OUT"],
    ["gram", "--n", "3", "--method", "frame,closed-form"],
], ids=["build", "gram"])
def test_commands_that_never_read_the_character_table_do_not_build_it(tmp_path, capsys,
                                                                     monkeypatch, argv):
    # build at n <= 5 and the frame and closed-form Gram routes read no table
    from linepack import chartab

    def no_table(group, rep):
        raise AssertionError("character table built")

    monkeypatch.setattr(chartab, "build_character_table", no_table)
    code, _, err = run(capsys, *[str(tmp_path / "out") if a == "OUT" else a for a in argv])
    assert (code, err) == (0, "")


def test_gram_single_method_writes_file(tmp_path, capsys):
    out = tmp_path / "g.mat"
    code, stdout, _ = run(capsys, "gram", "--n", "3", "--method", "closed-form",
                          "--out", str(out))
    assert code == 0
    assert out.exists()
    assert "OK (4096 entries)" == stdout.strip()


def test_gram_beyond_n5_points_to_verify(capsys, monkeypatch):
    # no N x N Gram is made at n = 7, and `verify --n` needs none
    from linepack import cli

    def no_contexts(n):
        raise AssertionError("contexts built before the usage check")

    monkeypatch.setattr(cli, "_contexts", no_contexts)
    code, _, err = run(capsys, "gram", "--n", "7")
    assert code == 2
    assert "`verify --n` certifies all N^2 entries without one at every n <= 9" in err


def test_gram_unknown_method(capsys):
    assert run(capsys, "gram", "--n", "3", "--method", "sorcery")[0] == 2


def test_srg_certificate(capsys):
    code, stdout, _ = run(capsys, "srg", "--v", "16", "--k", "6",
                          "--lambda", "2", "--mu", "2")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["certificate"]["verdict"] == "OPTIMAL"
    assert payload["certificate"]["m"] == 6
    assert payload["certificate"]["numVectors"] == 16
    assert payload["certificate"]["offDiagModulusSquared"] == "1/64"
    assert payload["isHyperdifferenceSet"] is True


# sha256 of the `srg --out` content files, for an ETF and for a violation;
# stdout is the certificate
SRG_SHA256 = {
    (16, 6, 2, 2): (0, "bbfeb1b1c2b9af1a25bb2c42583b42bd2843430bbdef465dc42a5ffe17712f77",
                    "3481f6be0430897be5cc8e588c1f68e3c9ec41f3057386cb9ade383ac19b6e41"),
    (9, 4, 1, 2): (1, "177dd5cf1b40753c66a889766bf85ff0fa84dd5697914050c720df407e57ed62",
                   "5eff23a9530eecceeb18a4019292bd080364192c6893a8d3e83bd713558fda0b"),
}


@pytest.mark.parametrize("params", sorted(SRG_SHA256), ids=lambda p: "-".join(map(str, p)))
def test_srg_content_hashes_pinned(tmp_path, capsys, params):
    want_code, gram_digest, cert_digest = SRG_SHA256[params]
    flags = [a for flag, x in zip(("--v", "--k", "--lambda", "--mu"), params) for a in (flag, str(x))]
    code, stdout, _ = run(capsys, "srg", *flags, "--out", str(tmp_path))
    assert code == want_code
    assert hashlib.sha256((tmp_path / "srg_gram.mat").read_bytes()).hexdigest() == gram_digest
    cert = (tmp_path / "srg_certificate.json").read_bytes()
    assert hashlib.sha256(cert).hexdigest() == cert_digest
    assert stdout.encode("ascii") == cert


def test_srg_conference_rejected(capsys):
    code, _, err = run(capsys, "srg", "--v", "5", "--k", "2",
                       "--lambda", "0", "--mu", "1")
    assert code == 2
    assert "conference" in err


@pytest.mark.parametrize("params, message", [
    (("16", "20", "2", "2"), "0 < k < v - 1 fails"),
    (("16", "6", "7", "2"), "0 <= lambda < k fails"),
    (("10", "3", "0", "1"), "the built-in sets are (9, 4, 1, 2) and (16, 6, 2, 2)"),
])
def test_srg_bad_parameters_named(capsys, params, message):
    # k > v and lambda > k are no SRG parameters at all; Petersen is one,
    # but has no built-in graph
    v, k, lam, mu = params
    code, stdout, err = run(capsys, "srg", "--v", v, "--k", k, "--lambda", lam, "--mu", mu)
    assert code == 2 and stdout == ""
    assert message in err


# ---------------------------------------------------------------------------
# the argument space
# ---------------------------------------------------------------------------

# small values only: n in {5, 7, 9} would build large frames, and --threads
# stays at most 4; "OUT" and "IN" are replaced by paths at run time
_ARG_N = st.sampled_from(["-1", "0", "2", "3", "4", "10", "11"])
_ARG_SMALL = st.integers(-1, 4).map(str)


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _flags(*parts):
    return st.tuples(*parts).map(lambda lists: [tok for part in lists for tok in part])


_ARGV = st.one_of(
    _flags(st.just(["build", "--out", "OUT"]), _optional("--n", _ARG_N),
           _optional("--samples", _ARG_SMALL), _optional("--seed", _ARG_SMALL),
           _optional("--threads", _ARG_SMALL), st.sampled_from([[], ["--float-export"]])),
    _flags(st.just(["verify"]), _optional("--n", _ARG_N),
           _optional("--in", st.sampled_from(["IN", "OUT/missing.mat"])),
           _optional("--mode", st.sampled_from(["full", "sample", "bogus"])),
           _optional("--samples", _ARG_SMALL), _optional("--seed", _ARG_SMALL),
           _optional("--threads", _ARG_SMALL)),
    _flags(st.just(["search"]), _optional("--max-order", st.integers(-1, 80).map(str)),
           st.sampled_from([[], ["--nonabelian-orders-only"]]),
           st.sampled_from([[], ["--suzuki-filters"]]),
           _optional("--out", st.just("OUT/tuples.csv"))),
    _flags(st.just(["chartab"]), _optional("--n", _ARG_N),
           _optional("--out", st.just("OUT/chartab.json"))),
    _flags(st.just(["gram"]), _optional("--n", _ARG_N),
           _optional("--method", st.sampled_from(["closed-form", "character,frame", "", "x"])),
           _optional("--threads", _ARG_SMALL), _optional("--out", st.just("OUT/g.mat"))),
    _flags(st.just(["srg"]), *(_optional(flag, st.integers(-2, 20).map(str))
                              for flag in ("--v", "--k", "--lambda", "--mu")),
           _optional("--out", st.just("OUT"))),
)


@settings(max_examples=60, deadline=None)
@given(argv=_ARGV, json_errors=st.booleans())
def test_cli_arguments_never_crash(built_n3, tmp_path_factory, argv, json_errors):
    out = tmp_path_factory.mktemp("args")
    paths = {"OUT": str(out), "IN": str(built_n3 / "frame.mat")}
    argv = [paths.get(tok, tok).replace("OUT/", f"{out}/") for tok in argv]
    try:
        code = main((["--json-errors"] if json_errors else []) + argv)
    except SystemExit as exc:  # argparse rejects before main's handlers
        code = exc.code
    assert code in (0, 1, 2), argv
