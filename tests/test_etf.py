import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linepack import FieldContext, GroupContext, RepContext, build_character_table, etf
from linepack.etf import (
    FrameMatrix,
    _certify_gram,
    _welch_pattern,
    closed_form_entry,
    first_mismatch,
    frame_blocks,
    frame_dimensions,
    gram_character,
    gram_closed_form,
    gram_from_frame,
    parseval_defect,
    read_matrix_file,
    synthesize_frame,
    three_way_sampled,
    verify_etf,
    verify_frame,
    verify_gram,
    welch_bound_sq,
    write_frame_file,
    write_gram_file,
    MatrixParseError,
)
from linepack.exact import blas_threads, exact_matmul
from linepack.scheme import GaussianRationalMatrix


def test_frame_dimensions():
    assert frame_dimensions(3) == (28, 64)
    assert frame_dimensions(5) == (496, 1024)
    assert frame_dimensions(7) == (8128, 16384)


def test_welch_bound_values():
    assert welch_bound_sq(28, 64) == (Fraction(1, 49), Fraction(1, 256))
    assert welch_bound_sq(6, 16)[1] == Fraction(1, 64)
    for m in (2, 5, 11):
        assert welch_bound_sq(m, m + 1)[0] == Fraction(1, m * m)
    with pytest.raises(ValueError):
        welch_bound_sq(16, 16)
    with pytest.raises(ValueError):
        welch_bound_sq(0, 4)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_frame_shape_and_scale_n3(group3, rep3):
    frame = synthesize_frame(group3, rep3)
    assert (frame.rows, frame.cols) == (28, 64)
    assert frame.log2_scale_sq == 1 - 6


def test_parseval_identity_n3(group3, rep3):
    frame = synthesize_frame(group3, rep3)
    assert parseval_defect(frame) is None
    # explicitly: integer row Gram is 2^(2n-k) I
    re = frame.re @ frame.re.T + frame.im @ frame.im.T
    im = frame.im @ frame.re.T - frame.re @ frame.im.T
    assert np.array_equal(re, 32 * np.eye(28, dtype=np.int64))
    assert not im.any()


def test_column_norms_and_identity_column(group3, rep3):
    frame = synthesize_frame(group3, rep3)
    norms = (frame.re ** 2 + frame.im ** 2).sum(axis=0)
    assert (norms == 14).all()  # 14 * 2^(-5) = 7/16 = m/N
    col0 = frame.re[:, 0].reshape(7, 2, 2)
    assert all(np.array_equal(b, np.eye(2, dtype=np.int64)) for b in col0)
    assert not frame.im[:, 0].any()


def test_entries_are_unit_gaussian_integers(group5, rep5):
    frame = synthesize_frame(group5, rep5)
    mags = frame.re ** 2 + frame.im ** 2
    assert set(np.unique(mags)) <= {0, 1}


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_closed_form_cases_n3(field3):
    # numerators over 2^(n+1) = 16
    assert closed_form_entry(field3, (1, 3), (1, 3)) == (7, 0)
    assert closed_form_entry(field3, (1, 3), (1, 5)) == (-1, 0)
    # first-coordinate difference 1 with trace argument 1
    assert closed_form_entry(field3, (0, 0), (1, 0)) == (0, 1)


def test_closed_form_conjugate_variant(field3, field5):
    # replacing x^3 by a^3 in the argument conjugates every off-center
    # entry: tr applied to the shifted argument always flips
    for field, trials in ((field3, None), (field5, 400)):
        q = field.order
        rng = random.Random(60)
        pairs = ([(g, h) for g in range(q * q) for h in range(q * q)]
                 if trials is None else
                 [(rng.randrange(q * q), rng.randrange(q * q)) for _ in range(trials)])
        for gi, hi in pairs:
            g = (gi >> field.n, gi & (q - 1))
            h = (hi >> field.n, hi & (q - 1))
            if g[0] == h[0]:
                continue
            w = g[0] ^ h[0]
            arg_mine = g[1] ^ h[1] ^ field.cube(g[0]) ^ field.mul(g[0], field.square(h[0]))
            arg_other = g[1] ^ h[1] ^ field.cube(h[0]) ^ field.mul(g[0], field.square(h[0]))
            w3inv = field.inv(field.cube(w))
            t_mine = field.trace(field.mul(w3inv, arg_mine))
            t_other = field.trace(field.mul(w3inv, arg_other))
            assert t_mine ^ t_other == 1
            assert closed_form_entry(field, g, h) == (0, -(1 - 2 * t_other))


def test_sign_bridge_identity(field3, field5):
    # tr(x a / (x + a)^2) = 0 whenever x != a: the quotient is in the
    # image of the Artin-Schreier map
    for field, trials in ((field3, None), (field5, 500)):
        rng = random.Random(61)
        q = field.order
        pairs = ([(x, a) for x in range(q) for a in range(q) if x != a]
                 if trials is None else
                 [(rng.randrange(q), rng.randrange(q)) for _ in range(trials)])
        for x, a in pairs:
            if x == a:
                continue
            u = field.mul(field.mul(x, a), field.inv(field.square(x ^ a)))
            assert field.trace(u) == 0


# ---------------------------------------------------------------------------
# Gram routes
# ---------------------------------------------------------------------------

def test_three_way_full_n3(group3, table3, rep3):
    report = three_way_sampled(group3, table3, rep3, min_entries=64 ** 2, seed=5)
    assert report["agree"] and report["pattern_ok"]
    assert report["entries"] == 4096 and report["columns"] == 64
    assert all(v is None for v in report["mismatches"].values())


def test_three_way_detects_an_element_in_the_sibling_coset():
    # a fresh group, so the session fixtures keep the true partition
    group = GroupContext(FieldContext(3))
    rep = RepContext(group)
    table = build_character_table(group, rep)
    g = group.index((1, 0))
    group.class_of_element[g] ^= 1  # the other coset of the hyperplane over x = 1
    report = three_way_sampled(group, table, rep, min_entries=64 ** 2)
    assert report["agree"] is False


@pytest.mark.parametrize("n, group_rows", [(3, 8), (5, 48)])
def test_streamed_frame_gram_crosses_groups(monkeypatch, request, n, group_rows):
    # 28 rows at n = 3 are 3 groups of 8 and a 4-row tail; 496 at n = 5 are
    # 10 groups of 48 and a 16-row tail
    group, rep, table = (request.getfixturevalue(f"{name}{n}")
                         for name in ("group", "rep", "table"))
    monkeypatch.setattr(etf, "_GROUP_ROWS", group_rows)
    report = three_way_sampled(group, table, rep, min_entries=group.order ** 2)
    assert report["agree"] and report["pattern_ok"]
    assert report["columns"] == group.order
    sel = np.array(sorted(random.Random(n).sample(range(group.order), 40)), dtype=np.int64)
    whole = synthesize_frame(group, rep)
    want = gram_from_frame(FrameMatrix(whole.re[:, sel], whole.im[:, sel],
                                       whole.log2_scale_sq))
    assert etf._gram_from_blocks(frame_blocks(group, rep, sel)) == want


def test_streamed_frame_gram_refuses_to_wrap(monkeypatch):
    # each one-row group's products are legal (bound 2^60) and so is one
    # group's sum (re = 2^60 + 2^60); the running bound of two groups is
    # 2^62, refused there, before any sum could wrap at 2^63
    monkeypatch.setattr(etf, "_GROUP_ROWS", 1)
    v = np.array([[1 << 30]], dtype=np.int64)
    block = FrameMatrix(v, v, 0)
    assert exact_matmul(v.T, v)[0, 0] == 1 << 60
    assert etf._gram_from_blocks([block]).re[0, 0] == 1 << 61
    with pytest.raises(OverflowError):
        etf._gram_from_blocks([block] * 2)


def test_sampled_frame_route_streams_n7(monkeypatch, group7, table7, rep7):
    # the m x ncols frame of the sample is 41 MB of int64 at n = 7; the
    # streamed route holds one 512-row group and one product at a time
    def refuse(*args):
        raise AssertionError("the sampled columns' frame was synthesized whole")

    monkeypatch.setattr(etf, "_synthesize_columns", refuse)
    tracemalloc.start()
    try:
        report = three_way_sampled(group7, table7, rep7, min_entries=100_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["agree"] and report["pattern_ok"] and report["columns"] == 317
    assert peak < 20 << 20


def test_gram_properties_n3(group3, table3):
    gram = gram_character(group3, table3, group3.inverse_product_index_matrix)
    assert gram.is_hermitian()
    assert gram @ gram == gram
    assert gram.trace() == (Fraction(28), Fraction(0))
    e = group3.index((0, 0))
    f = group3.index((1, 0))
    assert gram.entry(e, e) == (Fraction(7, 16), Fraction(0))
    assert gram.entry(e, f) == (Fraction(0), Fraction(1, 16))


def test_three_way_sampled_n3(group3, table3, rep3):
    report = three_way_sampled(group3, table3, rep3, min_entries=900, seed=2)
    assert report["agree"] and report["pattern_ok"]
    assert report["entries"] >= 900


def test_sampled_grid_matches_full_gram_n3(group3, table3):
    full = gram_closed_form(group3, group3.inverse_product_index_matrix)
    sel = np.array([0, 3, 17, 40, 63], dtype=np.int64)
    at = group3.inverse_product_index_grid(sel)
    block = gram_closed_form(group3, at)
    for i, a in enumerate(sel):
        for j, b in enumerate(sel):
            assert block.entry(i, j) == full.entry(int(a), int(b))
    block_c = gram_character(group3, table3, at)
    for i in range(len(sel)):
        for j in range(len(sel)):
            assert block_c.entry(i, j) == block.entry(i, j)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certificate_optimal_n3(group3, rep3):
    cert = verify_frame(synthesize_frame(group3, rep3))
    assert cert.verdict == "OPTIMAL"
    assert cert.parseval
    assert cert.m == 28 and cert.num_vectors == 64
    assert cert.diagonal_value == Fraction(7, 16)
    assert cert.off_diag_modulus_sq == Fraction(1, 256)
    assert cert.welch_sq_parseval == Fraction(1, 256)
    assert cert.welch_sq_unit == Fraction(1, 49)
    js = cert.to_json_dict()
    assert js["offDiagModulusSquared"] == "1/256"


def test_identity_gram_is_degenerate():
    cert = verify_gram(GaussianRationalMatrix.identity(8))
    assert cert.verdict == "NOT_ETF"
    assert "degenerate" in cert.failure


def _mercedes(tamper=None):
    # Parseval ETF of 3 vectors in dimension 2: diagonal 2/3, off-diagonal -1/3
    parts = {"re": 3 * np.eye(3, dtype=np.int64) - 1, "im": np.zeros((3, 3), dtype=np.int64)}
    if tamper:
        part, where, value = tamper
        parts[part][where] = value
    return GaussianRationalMatrix(parts["re"], parts["im"], 3)


@pytest.mark.parametrize("tamper, m, failure, off_sq, welch", [
    (None, 2, None, Fraction(1, 9), Fraction(1, 9)),
    (("re", (1, 1), 1), 2, "diagonal is not constant", None, None),
    (("im", (2, 2), 1), 2, "diagonal is not constant", None, None),
    (None, 1, "diagonal disagrees with m/N", None, None),
    (("re", (0, 1), 0), 2, "off-diagonal modulus is not constant", None, None),
    (("re", ~np.eye(3, dtype=bool), 0), 2,
     "off-diagonal modulus misses the Welch value", Fraction(0), Fraction(1, 9)),
])
def test_certify_gram_failures(tamper, m, failure, off_sq, welch):
    cert = _certify_gram(_mercedes(tamper), m, None, "gram", {})
    assert cert.failure == failure
    assert cert.verdict == ("OPTIMAL" if failure is None else "NOT_ETF")
    assert cert.off_diag_modulus_sq == off_sq and cert.welch_sq_parseval == welch
    # the sampled check runs the same pattern test on a principal submatrix
    assert _welch_pattern(_mercedes(tamper), m, 3)[0] == failure


def test_certify_gram_reports_the_failed_precondition():
    # a failed Parseval or projection check is the verdict; the pattern is not read
    cert = _certify_gram(_mercedes(), 2, "Gram matrix is not a projection", "gram", {})
    assert (cert.verdict, cert.failure) == ("NOT_ETF", "Gram matrix is not a projection")
    assert not cert.parseval and cert.diagonal_value is None and cert.off_diag_modulus_sq is None


def test_welch_pattern_passes_without_an_off_diagonal():
    # one sampled column: nothing to compare beyond the diagonal
    assert _welch_pattern(GaussianRationalMatrix([[7]], None, 16), 28, 64) == (None, None)
    assert _welch_pattern(GaussianRationalMatrix([[5]], None, 16), 28, 64)[0] \
        == "diagonal disagrees with m/N"


def test_non_projection_gram_rejected():
    bad = GaussianRationalMatrix(np.eye(4, dtype=np.int64) * 2)
    cert = verify_gram(bad)
    assert cert.verdict == "NOT_ETF"
    assert cert.failure == "Gram matrix is not a projection"


def test_tampered_frame_detected(group3, rep3):
    frame = synthesize_frame(group3, rep3)
    re = frame.re.copy()
    flat = np.flatnonzero(re)
    re.flat[flat[0]] = -re.flat[flat[0]]
    cert = verify_frame(FrameMatrix(re, frame.im, frame.log2_scale_sq))
    assert cert.verdict == "NOT_ETF"
    assert not cert.parseval
    assert cert.cross_checks["parsevalDefect"] is not None


def test_wrong_modulus_gram_fails_welch(group3, table3):
    # zero out one off-diagonal pair: stays Hermitian but no longer flat
    gram = gram_character(group3, table3, group3.inverse_product_index_matrix)
    re, im = gram.re.copy(), gram.im.copy()
    re[0, 1] = im[0, 1] = re[1, 0] = im[1, 0] = 0
    cert = verify_gram(GaussianRationalMatrix(re, im, gram.den))
    assert cert.verdict == "NOT_ETF"


def test_verify_etf_dispatch(group3, rep3, table3):
    assert verify_etf(synthesize_frame(group3, rep3)).verdict == "OPTIMAL"
    gram = gram_character(group3, table3, group3.inverse_product_index_matrix)
    assert verify_etf(gram).verdict == "OPTIMAL"
    with pytest.raises(TypeError):
        verify_etf(np.eye(3))


def test_srg_gram_certifies(scheme3):
    from linepack.scheme import srg_scheme, gram_projector
    desc, report = srg_scheme(16, 6, 2, 2)
    cert = verify_gram(gram_projector(desc, report.d_subset))
    assert cert.verdict == "OPTIMAL"
    assert cert.m == 6 and cert.num_vectors == 16
    assert cert.off_diag_modulus_sq == Fraction(1, 64)


def test_closed_form_gram_equals_scalar_entry_n3(group3, field3):
    gram = gram_closed_form(group3, group3.inverse_product_index_matrix)
    elems = list(group3.elements())
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            re, im = closed_form_entry(field3, g, h)
            assert gram.entry(i, j) == (Fraction(re, 16), Fraction(im, 16))


@st.composite
def _matrix_pairs(draw):
    """Two small Gaussian rational matrices of one shape with unreduced
    denominators: b is a rescaled copy of a with a few entries nudged, or
    unrelated to a."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ints = st.lists(st.integers(-40, 40), min_size=rows * cols, max_size=rows * cols)

    def part():
        return np.array(draw(ints), dtype=np.int64).reshape(rows, cols)

    a = GaussianRationalMatrix(part(), part(), draw(st.integers(1, 48)))
    if draw(st.booleans()):
        return a, GaussianRationalMatrix(part(), part(), draw(st.integers(1, 48)))
    scale = draw(st.integers(1, 12))
    re, im = a.re * scale, a.im * scale
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from([re, im]))
        target[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] += \
            draw(st.integers(-3, 3))
    return a, GaussianRationalMatrix(re, im, a.den * scale)


@settings(max_examples=300, deadline=None)
@given(_matrix_pairs())
def test_first_mismatch_is_the_row_major_fraction_scan(pair):
    a, b = pair
    rows, cols = a.shape
    want = next(((i, j) for i in range(rows) for j in range(cols)
                 if a.entry(i, j) != b.entry(i, j)), None)
    assert first_mismatch(a, b) == want
    assert first_mismatch(b, a) == want
    assert (a == b) is (want is None)
    # a one-row a broadcasts against the taller matrix, so only the shape check tells them apart
    tall = GaussianRationalMatrix(np.vstack([a.re, a.re]), np.vstack([a.im, a.im]), a.den)
    assert a != tall and tall != a


def test_first_mismatch_crosses_row_chunks():
    # 64 rows are compared at a time; the row index must count the rows before
    rng = np.random.default_rng(3)
    re, im = rng.integers(-9, 10, (150, 5)), rng.integers(-9, 10, (150, 5))
    a = GaussianRationalMatrix(re, im, 6)
    b = GaussianRationalMatrix(re * 4, im * 4, 24)
    assert first_mismatch(a, b) is None and a == b
    for row in (0, 63, 64, 100, 149):
        nudged = b.im.copy()
        nudged[row, 3] += 1
        assert first_mismatch(a, GaussianRationalMatrix(b.re, nudged, 24)) == (row, 3)


def test_first_mismatch_refuses_to_wrap():
    big = GaussianRationalMatrix(np.array([[1 << 40]]), None, 3)
    other = GaussianRationalMatrix(np.array([[1]]), None, 1 << 30)
    with pytest.raises(OverflowError):
        first_mismatch(big, other)
    assert first_mismatch(GaussianRationalMatrix(np.array([[1]]), None, 2),
                          GaussianRationalMatrix(np.array([[2]]), None, 3)) == (0, 0)


def test_threads_do_not_change_results(group3, rep3):
    # the BLAS thread count cannot change the kernel's products: each equals
    # the arbitrary-precision product of the n = 3 frame on dtype=object
    frame = synthesize_frame(group3, rep3)
    re, im = frame.re.astype(object), frame.im.astype(object)
    want = GaussianRationalMatrix(
        (np.dot(re.T, re) + np.dot(im.T, im)).astype(np.int64),
        (np.dot(re.T, im) - np.dot(im.T, re)).astype(np.int64),
        1 << -frame.log2_scale_sq)
    for threads in (1, 2):
        with blas_threads(threads):
            assert gram_from_frame(frame) == want


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_frame_file_roundtrip(tmp_path, group3, rep3):
    frame = synthesize_frame(group3, rep3)
    path = tmp_path / "frame.mat"
    write_frame_file(path, frame.rows, [frame])
    back = read_matrix_file(path)
    assert isinstance(back, FrameMatrix)
    assert back.log2_scale_sq == frame.log2_scale_sq
    assert np.array_equal(back.re, frame.re) and np.array_equal(back.im, frame.im)
    # streaming one block per gamma writes the same bytes as the whole frame
    cols = np.arange(group3.order, dtype=np.int64)
    write_frame_file(tmp_path / "frame2.mat", frame.rows, frame_blocks(group3, rep3, cols))
    assert (tmp_path / "frame.mat").read_bytes() == (tmp_path / "frame2.mat").read_bytes()


def test_gram_file_roundtrip(tmp_path, group3, table3):
    gram = gram_character(group3, table3, group3.inverse_product_index_matrix)
    path = tmp_path / "gram.mat"
    write_gram_file(path, gram)
    back = read_matrix_file(path)
    assert isinstance(back, GaussianRationalMatrix)
    assert back == gram
    first_line = path.read_text().splitlines()[1].split(" ")[0]
    assert first_line == "7/16;0/1"


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("not a matrix\n")
    with pytest.raises(MatrixParseError):
        read_matrix_file(bad)
    short = tmp_path / "short.mat"
    short.write_text("LINEPACK-MATRIX v1 rows=2 cols=2 scale_log2_num=0 scale_log2_den=1\n1;0 0;0\n")
    with pytest.raises(MatrixParseError):
        read_matrix_file(short)


_fractions = st.tuples(st.integers(-10 ** 15, 10 ** 15), st.integers(-60, 60).filter(bool))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4))
def test_gram_parser_matches_fraction_reference(tmp_path_factory, data, rows, cols):
    # unreduced fractions and negative denominators, which the writer never emits
    entries = data.draw(st.lists(st.tuples(_fractions, _fractions),
                                 min_size=rows * cols, max_size=rows * cols))
    path = tmp_path_factory.mktemp("parse") / "g.mat"
    lines = [" ".join(f"{p}/{q};{r}/{s}" for (p, q), (r, s) in entries[i * cols:(i + 1) * cols])
             for i in range(rows)]
    path.write_text(f"LINEPACK-MATRIX v1 rows={rows} cols={cols} scale_log2_num=0 "
                    "scale_log2_den=1\n" + "\n".join(lines) + "\n")
    values = [(Fraction(p, q), Fraction(r, s)) for (p, q), (r, s) in entries]
    den = math.lcm(*(v.denominator for pair in values for v in pair))
    if max(den, *(abs(v) * den for pair in values for v in pair)) >= 1 << 63:
        with pytest.raises(MatrixParseError, match="int64"):
            read_matrix_file(path)
        return
    got = read_matrix_file(path)
    assert got.den == den
    assert got.re.ravel().tolist() == [int(a * den) for a, _ in values]
    assert got.im.ravel().tolist() == [int(b * den) for _, b in values]


_gram_entries = st.one_of(st.just(0), st.integers(-2 ** 40, 2 ** 40))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4),
       den=st.one_of(st.just(1), st.integers(2, 2 ** 40)))
def test_gram_writer_matches_fraction_reference(tmp_path_factory, data, rows, cols, den):
    parts = [np.array(data.draw(st.lists(_gram_entries, min_size=rows * cols,
                                         max_size=rows * cols)),
                      dtype=np.int64).reshape(rows, cols) for _ in range(2)]
    gram = GaussianRationalMatrix(*parts, den)
    path = tmp_path_factory.mktemp("write") / "g.mat"
    write_gram_file(path, gram)
    lines = path.read_text(encoding="ascii").splitlines()
    assert len(lines) == rows + 1
    assert lines[0] == (f"LINEPACK-MATRIX v1 rows={rows} cols={cols} "
                        "scale_log2_num=0 scale_log2_den=1")
    for i, line in enumerate(lines[1:]):
        want = []
        for j in range(cols):
            a, b = (Fraction(int(p[i, j]), den) for p in parts)
            want.append(f"{a.numerator}/{a.denominator};{b.numerator}/{b.denominator}")
        assert line.split(" ") == want
    assert read_matrix_file(path) == gram


def test_gram_writer_refuses_a_denominator_beyond_int64(tmp_path):
    path = tmp_path / "g.mat"
    for den in (2 ** 63, 2 ** 63 + 1):
        with pytest.raises(OverflowError, match="int64"):
            write_gram_file(path, GaussianRationalMatrix([[1, 0]], None, den))
        assert not path.exists()
    # 2^63 - 1 still fits, and the file reads back
    gram = GaussianRationalMatrix([[1, -2]], [[0, 3]], 2 ** 63 - 1)
    write_gram_file(path, gram)
    assert read_matrix_file(path) == gram


def test_codec_crosses_row_chunks_with_distinct_entries(tmp_path, monkeypatch):
    # 130 rows in chunks of 64, 64 and 2 rows, as n = 5's 1024 columns get them,
    # while the Fraction reference stays small; almost every entry is distinct
    rng = np.random.default_rng(8)
    rows, cols, den = 130, 7, 3 * 2 ** 40
    monkeypatch.setattr(etf, "_CHUNK_ENTRIES", 64 * cols)
    assert etf._chunk_rows(cols) == 64

    def draw(bound):
        a = rng.integers(-bound, bound, size=(rows, cols), dtype=np.int64)
        a[rng.random((rows, cols)) < 0.1] = 0
        return a

    gram = GaussianRationalMatrix(draw(2 ** 45), draw(2 ** 45), den)
    write_gram_file(tmp_path / "g.mat", gram)
    lines = (tmp_path / "g.mat").read_text(encoding="ascii").splitlines()
    assert len(lines) == rows + 1
    for i, line in enumerate(lines[1:]):
        want = []
        for j in range(cols):
            a, b = (Fraction(int(p[i, j]), den) for p in (gram.re, gram.im))
            want.append(f"{a.numerator}/{a.denominator};{b.numerator}/{b.denominator}")
        assert line == " ".join(want)
    assert read_matrix_file(tmp_path / "g.mat") == gram

    frame = FrameMatrix(draw(2 ** 62), draw(2 ** 62), -6)
    write_frame_file(tmp_path / "f.mat", rows, [frame])
    blocks = [FrameMatrix(frame.re[a:b], frame.im[a:b], -6) for a, b in ((0, 50), (50, rows))]
    write_frame_file(tmp_path / "f2.mat", rows, blocks)
    assert (tmp_path / "f.mat").read_bytes() == (tmp_path / "f2.mat").read_bytes()
    lines = (tmp_path / "f.mat").read_text(encoding="ascii").splitlines()
    assert len(lines) == rows + 1
    for i, line in enumerate(lines[1:]):
        assert line == " ".join("%d;%d" % (frame.re[i, j], frame.im[i, j]) for j in range(cols))
    back = read_matrix_file(tmp_path / "f.mat")
    assert back.log2_scale_sq == -6
    assert np.array_equal(back.re, frame.re) and np.array_equal(back.im, frame.im)


def test_float_export_rounds(group3, rep3):
    frame = synthesize_frame(group3, rep3)
    dense = frame.to_complex()
    assert dense.shape == (28, 64)
    assert np.allclose((dense @ dense.conj().T), np.eye(28), atol=1e-12)
