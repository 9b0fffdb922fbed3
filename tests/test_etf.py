import dataclasses
import hashlib
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linepack import (FieldContext, GroupContext, RepContext, build_character_table, etf,
                      exact, scheme)
from linepack.etf import (
    FrameMatrix,
    _certify_gram,
    _welch_pattern,
    closed_form_entry,
    first_mismatch,
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
from linepack.exact import blas_threads, exact_gram, exact_matmul
from linepack.scheme import GaussianRationalMatrix


def _entry(a: GaussianRationalMatrix, i: int, j: int) -> tuple[Fraction, Fraction]:
    return Fraction(int(a.re[i, j]), a.den), Fraction(int(a.im[i, j]), a.den)


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
    g = 1 << 3  # (1, 0)
    group.class_of_element[g] ^= 1  # the other coset of the hyperplane over x = 1
    report = three_way_sampled(group, table, rep, min_entries=64 ** 2, seed=1)
    assert report["agree"] is False


@pytest.mark.parametrize("n", [3, 5])
def test_sampled_gram_is_the_frame_gram_on_its_columns(request, n):
    # the walk restricted to the sampled x's, gathered at (x_j, y_i + y_j),
    # against the brute-force product of the frame's sampled columns, and
    # held alike: reduced by its gcd, int8
    group, rep, table = (request.getfixturevalue(f"{name}{n}")
                         for name in ("group", "rep", "table"))
    report = three_way_sampled(group, table, rep, min_entries=group.order ** 2, seed=1)
    assert report["agree"] and report["pattern_ok"]
    assert report["columns"] == group.order
    sel = np.array(sorted(random.Random(n).sample(range(group.order), 40)), dtype=np.int64)
    whole = synthesize_frame(group, rep)
    want = gram_from_frame(FrameMatrix(whole.re[:, sel], whole.im[:, sel],
                                       whole.log2_scale_sq))
    got = etf._sampled_gram(etf.frame_factors(group, rep), sel)
    assert got == want and got.den == want.den
    assert got.re.dtype == got.im.dtype == np.int8


def test_streamed_frame_gram_refuses_to_wrap():
    # one row's products are legal (bound 2^60) and so is their sum
    # (re = 2^60 + 2^60); the bound 2 max|frame|^2 rows of two rows is 2^62,
    # refused before any sum could wrap at 2^63
    v = np.array([[1 << 30]], dtype=np.int64)
    assert exact_matmul(v.T, v)[0, 0] == 1 << 60
    assert gram_from_frame(FrameMatrix(v, v, 0)).re[0, 0] == 1 << 61
    with pytest.raises(OverflowError):
        gram_from_frame(FrameMatrix(np.vstack([v, v]), np.vstack([v, v]), 0))


def _object_gram(blocks) -> GaussianRationalMatrix:
    """frame^H frame of the stacked blocks in Python ints, unreduced."""
    re = np.concatenate([b.re for b in blocks]).astype(object)
    im = np.concatenate([b.im for b in blocks]).astype(object)
    return GaussianRationalMatrix((re.T @ re + im.T @ im).astype(np.int64),
                                  (re.T @ im - im.T @ re).astype(np.int64),
                                  1 << -blocks[0].log2_scale_sq)


def test_streamed_frame_gram_widens_before_the_bound_leaves_int16(monkeypatch):
    # each row adds 2 * 100^2 = 20000 to the bound: one row's sums fit
    # int16, and two rows' would wrap it, since each diagonal entry of two
    # rows of +-99 or +-100 reaches 4 * 99^2 > 2^15
    rng = np.random.default_rng(22)
    parts = rng.choice(np.array([-100, -99, 99, 100], dtype=np.int8), (2, 5, 6))
    accumulated = []
    real_add = etf.exact_gram

    def add(re, im, out):
        accumulated.append(out[0].dtype)
        real_add(re, im, out)

    monkeypatch.setattr(etf, "exact_gram", add)
    for rows in (1, 2, 5):
        accumulated.clear()
        frame = FrameMatrix(parts[0, :rows], parts[1, :rows], 0)
        got = gram_from_frame(frame)
        want = _object_gram([frame])
        assert want.max_abs() >= (1 << 15 if rows > 1 else 128)
        assert accumulated == [np.int16 if rows == 1 else np.int64]
        assert got.re.dtype == got.im.dtype == np.int64 and got == want


def test_frame_gram_is_int8_only_when_every_reduced_entry_fits():
    # over the scale 16, one row [12, 1] has the Gram [[144, 12], [12, 1]]
    # with gcd 1, accumulated in int16 and held in int64; [8, 4] reduces by
    # 16 to [[4, 2], [2, 1]], and the zero Gram to 0 over 1
    for row, dtype, den in [([[12, 1]], np.int64, 16), ([[8, 4]], np.int8, 1),
                            ([[0, 0]], np.int8, 1)]:
        block = FrameMatrix(np.array(row, dtype=np.int8), np.zeros((1, 2), np.int8), -4)
        got = gram_from_frame(block)
        assert got.re.dtype == got.im.dtype == dtype
        assert got == _object_gram([block]) and got.den == den


@pytest.mark.parametrize("n", [3, 5])
def test_frame_gram_is_held_as_its_file_reads(tmp_path, request, n):
    group, rep = (request.getfixturevalue(f"{name}{n}") for name in ("group", "rep"))
    gram = gram_from_frame(synthesize_frame(group, rep))
    write_gram_file(tmp_path / "gram.mat", gram)
    back = read_matrix_file(tmp_path / "gram.mat")
    assert gram.re.dtype == gram.im.dtype == back.re.dtype == back.im.dtype == np.int8
    assert gram.den == back.den == 1 << (n + 1)
    assert np.array_equal(gram.re, back.re) and np.array_equal(gram.im, back.im)


def test_frame_blocks_refuse_entries_beyond_int8(monkeypatch, group3, rep3):
    # the factor form holds int8 copies of the representation stack; an
    # entry that would wrap must raise, not give a wrong Gram
    re, im = rep3.dense_x0
    bad = re.copy()
    bad[0, 0] = 200
    monkeypatch.setattr(rep3, "dense_x0", (bad, im))
    with pytest.raises(OverflowError, match="int8"):
        etf.frame_factors(group3, rep3)
    with pytest.raises(OverflowError, match="int8"):
        synthesize_frame(group3, rep3)


def test_frame_blocks_are_int8(group3, rep3):
    block = next(etf.frame_factors(group3, rep3).blocks())
    assert block.re.dtype == block.im.dtype == np.int8
    frame = synthesize_frame(group3, rep3)
    assert frame.re.dtype == frame.im.dtype == np.int8


def test_sampled_frame_route_streams_n7(monkeypatch, group7, table7, rep7):
    # the m x ncols frame of the sample is 41 MB of int64 at n = 7; the
    # route synthesizes none of it and holds one slab of the walk at a time
    def refuse(*args):
        raise AssertionError("the sampled columns' frame was synthesized")

    for name in ("blocks", "frame"):
        monkeypatch.setattr(etf.FrameFactors, name, refuse)
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
    assert gram.hermitian_defect() is None
    assert gram @ gram == gram
    assert gram.trace() == (Fraction(28), Fraction(0))
    e, f = 0, 1 << 3  # (0, 0) and (1, 0)
    assert _entry(gram, e, e) == (Fraction(7, 16), Fraction(0))
    assert _entry(gram, e, f) == (Fraction(0), Fraction(1, 16))


def test_three_way_sampled_n3(group3, table3, rep3):
    report = three_way_sampled(group3, table3, rep3, min_entries=900, seed=2)
    assert report["agree"] and report["pattern_ok"]
    assert report["entries"] >= 900


def test_three_way_sampled_refuses_fewer_than_one_entry(group3, table3, rep3):
    for min_entries in (0, -4):
        with pytest.raises(ValueError, match="min_entries"):
            three_way_sampled(group3, table3, rep3, min_entries=min_entries, seed=1)


@pytest.mark.parametrize("min_entries, columns", [
    (1, 1), (2, 2), (4096, 64), (4097, 65), (100_000, 317)])
def test_three_way_sampled_columns_are_the_ceiling_square_root(group5, table5, rep5,
                                                             min_entries, columns):
    report = three_way_sampled(group5, table5, rep5, min_entries=min_entries, seed=1)
    assert report["columns"] == columns and report["agree"] and report["pattern_ok"]


@pytest.mark.parametrize("rows", [[37], [3, 37]])
def test_sampled_routes_report_the_whole_selection_mismatch(monkeypatch, group3, table3,
                                                            rep3, flip_route, rows):
    # upper_blocks chunks of at most 8 x 40 entries on a 40-column selection
    # at n = 3, and a closed form that differs in column 5 of the given rows:
    # (37, 5) lies below the diagonal, seen only in a chunk's mirror.  Each
    # pair reports what the whole-selection matrices give
    sel = np.array(sorted(random.Random(4).sample(range(64), 40)), dtype=np.int64)
    whole_at = group3.inverse_product_index_grid(sel)
    closed_form = gram_closed_form(group3, whole_at)
    re = closed_form.re.copy()
    re[rows, 5] += 1
    whole = synthesize_frame(group3, rep3)
    want = etf._route_mismatches({
        "frame": gram_from_frame(FrameMatrix(whole.re[:, sel], whole.im[:, sel],
                                             whole.log2_scale_sq)),
        "character": gram_character(group3, table3, whole_at),
        "closedForm": GaussianRationalMatrix(re, closed_form.im, closed_form.den)})
    assert want == {"frame_vs_character": None, "frame_vs_closedForm": (rows[0], 5),
                    "character_vs_closedForm": (rows[0], 5)}
    monkeypatch.setattr(scheme, "_BLOCK_ENTRIES", 8 * 40)
    flip_route({"closedForm": [(sel[g], sel[5]) for g in rows]})
    report = three_way_sampled(group3, table3, rep3, min_entries=40 ** 2, seed=4)
    assert report["columns"] == 40 and report["mismatches"] == want


@pytest.mark.parametrize("flips, want", [
    ({"character": 700, "closedForm": 100},
     {"frame_vs_character": (0, 700), "frame_vs_closedForm": (0, 100),
      "character_vs_closedForm": (0, 100)}),
    ({"closedForm": 1020},
     {"frame_vs_character": None, "frame_vs_closedForm": (0, 1020),
      "character_vs_closedForm": (0, 1020)}),
], ids=["character-row", "closed-form-row"])
def test_factored_walk_reports_the_whole_matrix_route_mismatch_n5(monkeypatch, group5, table5,
                                                                  rep5, flips, want):
    # a table route's row one more at an element u differs wherever
    # inv(g) h = u, first at (0, u); the walk of the slab rows (x, 0) and
    # their mirrors reports what the whole matrices give, and the frame
    # certificate is unaffected
    def flipped(name, route):
        def call(group, *args):
            row = route(group, *args)
            re = row.re.astype(np.int64)
            re[flips[name]] += 1
            return GaussianRationalMatrix(re, row.im, row.den)
        return call

    full_at = group5.inverse_product_index_matrix
    whole = {"frame": gram_from_frame(synthesize_frame(group5, rep5)),
             "character": gram_character(group5, table5, np.arange(group5.order)),
             "closedForm": gram_closed_form(group5, np.arange(group5.order))}
    for name, u in flips.items():
        row = whole[name]
        re = row.re.astype(np.int64)
        re[u] += 1
        whole[name] = GaussianRationalMatrix(re, row.im, row.den)
    for name in ("character", "closedForm"):
        whole[name] = etf._gathered(whole[name], full_at)
    assert etf._route_mismatches(whole) == want
    for name, attr in (("character", "gram_character"), ("closedForm", "gram_closed_form")):
        if name in flips:
            monkeypatch.setattr(etf, attr, flipped(name, getattr(etf, attr)))
    found = {}
    cert = etf.verify_factors(etf.frame_factors(group5, rep5), routes=(group5, table5, found))
    assert found == want and cert.verdict == "OPTIMAL"


def test_block_walk_reports_the_whole_selection_route_mismatch_n5(monkeypatch, group5, table5,
                                                                  rep5, flip_route):
    # 150 sampled columns at n = 5 in chunks of at most 1500 entries: a
    # character flip in the last chunk and a closed-form flip below the
    # diagonal, at selection positions
    monkeypatch.setattr(scheme, "_BLOCK_ENTRIES", 1500)
    sel = np.array(sorted(random.Random(3).sample(range(1024), 150)), dtype=np.int64)
    flip_route({"character": [(sel[149], sel[148])], "closedForm": [(sel[120], sel[7])]})
    report = three_way_sampled(group5, table5, rep5, min_entries=150 ** 2, seed=3)
    assert report["columns"] == 150 and report["pattern_ok"]
    assert report["mismatches"] == {"frame_vs_character": (149, 148),
                                    "frame_vs_closedForm": (120, 7),
                                    "character_vs_closedForm": (120, 7)}


def test_sampled_pattern_reads_the_frame_gram(monkeypatch, group3, table3, rep3):
    # one off-diagonal modulus of the frame route changed; the table routes
    # alone would pass the pattern check
    sampled_gram = etf._sampled_gram

    def tampered(factors, sel):
        gram = sampled_gram(factors, sel)
        re = gram.re.copy()
        re[2, 7] += 1
        return GaussianRationalMatrix(re, gram.im, gram.den)

    monkeypatch.setattr(etf, "_sampled_gram", tampered)
    report = three_way_sampled(group3, table3, rep3, min_entries=64 ** 2, seed=1)
    assert report["pattern_ok"] is False
    assert report["mismatches"]["frame_vs_closedForm"] == (2, 7)


def test_sampled_grid_matches_full_gram_n3(group3, table3):
    full = gram_closed_form(group3, group3.inverse_product_index_matrix)
    sel = np.array([0, 3, 17, 40, 63], dtype=np.int64)
    at = group3.inverse_product_index_grid(sel)
    block = gram_closed_form(group3, at)
    for i, a in enumerate(sel):
        for j, b in enumerate(sel):
            assert _entry(block, i, j) == _entry(full, a, b)
    block_c = gram_character(group3, table3, at)
    for i in range(len(sel)):
        for j in range(len(sel)):
            assert _entry(block_c, i, j) == _entry(block, i, j)


def test_gram_character_row_stays_within_its_memory_budget_n7(group7, table7):
    # 0.67 MiB traced when the row was gathered over all N elements as int64 and
    # reduced there; the class row is reduced and narrowed before it is gathered
    first = np.arange(group7.order)
    tracemalloc.start()
    try:
        row = gram_character(group7, table7, first)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * (1 << 20), f"{peak / (1 << 20):.2f} MiB"
    assert row.re.dtype == np.int8 and row == gram_closed_form(group7, first)


# ---------------------------------------------------------------------------
# factored route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5])
def test_factored_gram_is_the_frame_gram(request, n):
    # all N^2 entries, real and imaginary parts, against the brute-force product
    group, rep = (request.getfixturevalue(f"{name}{n}") for name in ("group", "rep"))
    got = etf._sampled_gram(etf.frame_factors(group, rep), np.arange(group.order))
    want = gram_from_frame(synthesize_frame(group, rep))
    assert got == want


def test_factored_gram_is_the_frame_gram_on_a_tile_n7(group7, rep7):
    # the walk restricted to the x's of 256 columns, gathered there, against
    # the gram_tiles product of the frame's blocks sliced to them
    sel = np.array(sorted(random.Random(7).sample(range(group7.order), 256)), dtype=np.int64)
    factors = etf.frame_factors(group7, rep7)
    blocks = [FrameMatrix(b.re[:, sel], b.im[:, sel], b.log2_scale_sq) for b in factors.blocks()]
    acc = np.zeros((2, len(sel), len(sel)), dtype=np.int64)
    exact_gram(np.concatenate([b.re for b in blocks]), np.concatenate([b.im for b in blocks]),
               (acc[0], acc[1]))
    want = GaussianRationalMatrix(acc[0], acc[1], 1 << -factors.log2_scale_sq)
    assert etf._sampled_gram(factors, sel) == want


def test_factored_walk_values_and_bound(group3, rep3, group5, rep5):
    # 2^15 values: the diagonal (q - 1) 2^k, off it |F|^2 = 4^k, as the Welch
    # pattern over 2^(2n - k) needs; the bound (q - 1) max|M| = 124 is checked,
    # so the transform runs in int8
    factors = etf.frame_factors(group5, rep5)
    values = [(x, re, im) for x, re, im in factors.gram_values()]
    assert len(values) == 32 and all(re.dtype == im.dtype == np.int8 for _, re, im in values)
    for x, re, im in values:
        sq = re.astype(np.int64) ** 2 + im.astype(np.int64) ** 2
        assert (re[x, 0], im[x, 0]) == (31 * 4, 0)
        sq[x, 0] = 16
        assert (sq == 16).all()
    # a bound just past int8, 7 * 4 * 3^2 = 252 at n = 3, runs in int16, exactly
    threes = dataclasses.replace(etf.frame_factors(group3, rep3), p_re=np.full((8, 4), 3, np.int8),
                                 p_im=np.zeros((8, 4), np.int8))
    assert next(threes.gram_values())[1].dtype == np.int16
    assert etf._sampled_gram(threes, np.arange(64)) == gram_from_frame(threes.frame())
    # only at n = 9 can int8 entries reach it: 511 * 2 * 256 * 127^2 > 2^31
    field9 = FieldContext(9)
    big = etf.FrameFactors(np.full((512, 256), 127, np.int8), np.full((512, 256), 127, np.int8),
                           np.zeros((511, 512), np.int32), np.ones((511, 512), np.int8), field9)
    with pytest.raises(OverflowError, match="2\\*\\*31"):
        next(big.gram_values())


def test_factored_certificate_n7(group7, rep7):
    # every one of the 2^28 entries, from 2^21 values: the full certificate
    # build --n 7 writes, pinned by its sha256
    cert = etf.verify_factors(etf.frame_factors(group7, rep7))
    text = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert (cert.verdict, cert.diagonal_value, cert.off_diag_modulus_sq) == (
        "OPTIMAL", Fraction(127, 256), Fraction(1, 65536))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
        "10060dedd10407f0ee77255b7723a9086965f1ce124ed4867f9c89927605d771"


def _flip_p(factors):
    p_re = factors.p_re.copy()
    at = np.flatnonzero(p_re)[0]
    p_re.flat[at] = -p_re.flat[at]
    return dataclasses.replace(factors, p_re=p_re)


def _flip_sign(factors):
    signs = factors.signs.copy()
    signs[2, 5] = -signs[2, 5]
    return dataclasses.replace(factors, signs=signs)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("mutant", ["p", "sign", "inverse_cube"])
def test_factored_route_catches_each_mutant(monkeypatch, request, n, mutant):
    # each is NOT_ETF, with the Parseval defect the brute force finds: a
    # flipped P entry breaks the Welch pattern; a flipped sign, or a field
    # whose inverse-cube table repeats an entry, leaves the sign rows off the
    # centre's distinct characters, so one gamma's term would land on
    # another's, and is refused before the walk
    group, rep = (request.getfixturevalue(f"{name}{n}") for name in ("group", "rep"))
    if mutant == "inverse_cube":  # for the whole test; nothing here reads the classes
        table = group.field.inverse_cube_table.copy()
        table[2] = table[1]
        monkeypatch.setitem(group.field.__dict__, "inverse_cube_table", table)
    factors = etf.frame_factors(group, rep)
    if mutant != "inverse_cube":
        factors = _flip_p(factors) if mutant == "p" else _flip_sign(factors)
    cert = etf.verify_factors(factors)
    defect = parseval_defect(factors.frame())
    assert cert.verdict == "NOT_ETF"
    assert cert.cross_checks["parsevalDefect"] == (defect and list(defect))
    if mutant == "p":
        assert not cert.parseval and cert.failure == "parseval identity fails"
    else:
        assert cert.failure.startswith(
            "sign rows are not the centre's distinct nontrivial characters")
        assert factors.sign_defect() is not None


@pytest.mark.parametrize("n", [3, 5])
def test_factored_route_certifies_swapped_sign_rows(request, n):
    # sign rows 0 and 1 swapped are still the centre's nontrivial characters,
    # each once: the walk's values are that frame's Gram, and its certificate
    # is the brute force's, OPTIMAL
    group, rep = (request.getfixturevalue(f"{name}{n}") for name in ("group", "rep"))
    factors = etf.frame_factors(group, rep)
    swapped = dataclasses.replace(
        factors, signs=factors.signs[[1, 0, *range(2, len(factors.signs))]])
    assert swapped.sign_defect() is None
    cert = etf.verify_factors(swapped)
    assert cert == verify_frame(swapped.frame()) and cert.verdict == "OPTIMAL"
    assert etf._sampled_gram(swapped, np.arange(group.order)) == \
        gram_from_frame(swapped.frame())


def test_sign_defect_names_the_first_row_off_the_nontrivial_characters(group3, rep3):
    # a row that is not a character is named at its first bad y; a row that
    # repeats an earlier row's character, or is the trivial one, at y = 0
    factors = etf.frame_factors(group3, rep3)
    repeated, trivial = factors.signs.copy(), factors.signs.copy()
    repeated[4] = repeated[1]
    trivial[3] = 1
    assert factors.sign_defect() is None
    assert _flip_sign(factors).sign_defect() == (2, 5)
    assert dataclasses.replace(factors, signs=repeated).sign_defect() == (4, 0)
    assert dataclasses.replace(factors, signs=trivial).sign_defect() == (3, 0)


def test_factored_parseval_defect_is_the_frames(group3, rep3):
    # read from the factors, with no m x N frame: equal to the brute force on
    # the true frame and on mutants whose frame frame^H is not block-diagonal
    # (random signs, a repeated sign row) or whose blocks differ (a gamma^-1 x
    # table that is not a permutation); n = 5 has the flips in the test above
    factors = etf.frame_factors(group3, rep3)
    rng = np.random.default_rng(3)
    signs, repeated, images = factors.signs.copy(), factors.signs.copy(), factors.images.copy()
    signs[1:] = rng.choice(np.array([-1, 1], dtype=np.int8), size=signs[1:].shape)
    repeated[4] = repeated[1]
    images[3, 2] = images[3, 5]
    mutants = [factors, _flip_p(factors), _flip_sign(factors),
               dataclasses.replace(factors, signs=signs),
               dataclasses.replace(factors, signs=repeated),
               dataclasses.replace(factors, images=images)]
    found = [m.parseval_defect() for m in mutants]
    assert found == [parseval_defect(m.frame()) for m in mutants]
    assert found[0] is None and None not in found[1:]


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


def _pattern(gram, m, num_vectors):
    """`_welch_pattern` of a held matrix, read in the chunks of `upper_blocks`:
    the failure and the squared off-diagonal modulus."""
    return _welch_pattern(gram.upper_blocks(), gram.den, m, num_vectors)[:2]


def _certify(gram, m, precondition=None):
    return _certify_gram(gram.upper_blocks(), gram.den, m, gram.shape[0], precondition,
                         "gram", {})


def _mercedes(tamper=None):
    # Parseval ETF of 3 vectors in dimension 2: diagonal 2/3, off-diagonal -1/3
    parts = {"re": 3 * np.eye(3, dtype=np.int64) - 1, "im": np.zeros((3, 3), dtype=np.int64)}
    if tamper:
        part, where, value = tamper
        parts[part][where] = value
    return GaussianRationalMatrix(parts["re"], parts["im"], 3)


_CERTIFY_CASES = [
    (None, 2, None, Fraction(1, 9), Fraction(1, 9)),
    (("re", (1, 1), 1), 2, "diagonal is not constant", None, None),
    (("im", (2, 2), 1), 2, "diagonal is not constant", None, None),
    (None, 1, "diagonal disagrees with m/N", None, None),
    (("re", (0, 1), 0), 2, "off-diagonal modulus is not constant", None, None),
    (("re", ~np.eye(3, dtype=bool), 0), 2,
     "off-diagonal modulus misses the Welch value", Fraction(0), Fraction(1, 9)),
]


@pytest.mark.parametrize("tamper, m, failure, off_sq, welch", _CERTIFY_CASES)
def test_certify_gram_failures(tamper, m, failure, off_sq, welch):
    cert = _certify(_mercedes(tamper), m)
    assert cert.failure == failure
    assert cert.verdict == ("OPTIMAL" if failure is None else "NOT_ETF")
    assert cert.off_diag_modulus_sq == off_sq and cert.welch_sq_parseval == welch
    # the sampled check runs the same pattern test on a principal submatrix
    assert _pattern(_mercedes(tamper), m, 3)[0] == failure


def test_certify_gram_reports_the_failed_precondition():
    # a failed Parseval or projection check is the verdict; the pattern is not read
    cert = _certify(_mercedes(), 2, "Gram matrix is not a projection")
    assert (cert.verdict, cert.failure) == ("NOT_ETF", "Gram matrix is not a projection")
    assert not cert.parseval and cert.diagonal_value is None and cert.off_diag_modulus_sq is None


def test_welch_pattern_passes_without_an_off_diagonal():
    # one sampled column: nothing to compare beyond the diagonal
    assert _pattern(GaussianRationalMatrix([[7]], None, 16), 28, 64) == (None, None)
    assert _pattern(GaussianRationalMatrix([[5]], None, 16), 28, 64)[0] \
        == "diagonal disagrees with m/N"


def _tile_walk(gram, edge):
    """A held matrix on and above its diagonal in the tiles `exact.gram_tiles`
    yields with _TILE = edge: square bands, one row band after another."""
    size = gram.shape[0]
    bands = [slice(c, min(c + edge, size)) for c in range(0, size, edge)]
    for a, ta in enumerate(bands):
        for tb in bands[a:]:
            yield ta, tb, gram.re[ta, tb], gram.im[ta, tb]


def _fields(cert):
    return cert.failure, cert.diagonal_value, cert.off_diag_modulus_sq, cert.welch_sq_parseval


@pytest.mark.parametrize("walk", ["one row", "tiles of 2"])
def test_welch_walk_does_not_depend_on_the_blocks(monkeypatch, group3, rep3, walk):
    # every block is read before the answer is chosen, so a fault's block
    # does not decide which fault is reported
    gram = gram_from_frame(synthesize_frame(group3, rep3))
    late_diagonal = [gram.re.copy(), gram.im.copy()]
    late_diagonal[0][0, 1] += 1  # an off-diagonal fault in the first block
    late_diagonal[0][1, 0] += 1
    late_diagonal[0][63, 63] += 1  # a diagonal fault in the last block
    late_welch = gram.im.copy()
    late_welch[62, 63] += 1  # one modulus in the last block holding an off-diagonal entry
    late_welch[63, 62] -= 1
    cases = [(_mercedes(tamper), m) for tamper, m, *_ in _CERTIFY_CASES] + [
        (GaussianRationalMatrix([[7]], None, 16), 28),
        (GaussianRationalMatrix([[5]], None, 16), 28),
        (GaussianRationalMatrix(*late_diagonal, gram.den), 28),
        (GaussianRationalMatrix(gram.re, late_welch, gram.den), 28),
        # entries of 2^31 and more: only a diagonal fault is reported, no squares formed
        (GaussianRationalMatrix([[1 << 32, 1 << 31], [1 << 31, (1 << 32) + 1]], None, 1 << 33), 1),
    ]
    wants = [_fields(_certify(case, m)) for case, m in cases]
    assert [w[0] for w in wants[-3:]] == ["diagonal is not constant",
                                          "off-diagonal modulus is not constant",
                                          "diagonal is not constant"]
    if walk == "one row":
        monkeypatch.setattr(scheme, "_BLOCK_ENTRIES", 1)
    blocks = (lambda g: g.upper_blocks()) if walk == "one row" else (lambda g: _tile_walk(g, 2))
    for (case, m), want in zip(cases, wants):
        cert = _certify_gram(blocks(case), case.den, m, case.shape[0], None, "gram", {})
        assert _fields(cert) == want
    # a constant diagonal m/N and an entry of 2^31: the squares are refused
    big = GaussianRationalMatrix([[1 << 32, 1 << 31], [1 << 31, 1 << 32]], None, 1 << 33)
    with pytest.raises(OverflowError, match="abs_sq_int"):
        _welch_pattern(blocks(big), big.den, 1, 2)


def test_frame_welch_walk_reads_small_tiles(monkeypatch, group3, rep3):
    # the frame's own Gram tiles, two columns wide, give the certificate of
    # the unpatched walk
    frames = [synthesize_frame(group3, rep3),
              FrameMatrix(np.array([[1, 0, 1, 0], [0, 1, 0, 1]]), np.zeros((2, 4), int), -1)]
    wants = [verify_frame(frame) for frame in frames]
    assert [w.failure for w in wants] == [None, "off-diagonal modulus is not constant"]
    monkeypatch.setattr(exact, "_TILE", 2)
    for frame, want in zip(frames, wants):
        assert verify_frame(frame) == want


def test_one_column_tiles_still_read_the_off_diagonal(monkeypatch):
    # the first 1 x 1 tile holds no off-diagonal entry and the next holds
    # (0, 1): a tight frame that is not an ETF still fails, and the Welch
    # pattern never passes a frame without reading its off-diagonal moduli
    monkeypatch.setattr(exact, "_TILE", 1)
    frame = FrameMatrix(np.array([[1, 0, 1, 0], [0, 1, 0, 1]]), np.zeros((2, 4), int), -1)
    cert = verify_frame(frame)
    assert (cert.failure, cert.parseval) == ("off-diagonal modulus is not constant", True)


def test_non_projection_gram_rejected():
    bad = GaussianRationalMatrix(np.eye(4, dtype=np.int64) * 2)
    cert = verify_gram(bad)
    assert cert.verdict == "NOT_ETF"
    assert cert.failure == "Gram matrix is not a projection"


def test_verify_gram_checks_hermitian_before_the_folded_square(monkeypatch, group3, rep3):
    # the projection check squares G as G^H G, which is G @ G only once G
    # is known to be Hermitian
    gram = gram_from_frame(synthesize_frame(group3, rep3))
    re = gram.re.copy()
    re[3, 7] += 2
    re[7, 3] += 2  # still Hermitian, no longer a projection
    cert = verify_gram(GaussianRationalMatrix(re, gram.im, gram.den))
    assert cert.failure == "Gram matrix is not a projection"
    assert cert.cross_checks["projectionDefect"] == [0, 3]  # as gram @ gram finds it

    def refuse(*args):
        raise AssertionError("a non-Hermitian Gram reached the folded square")

    monkeypatch.setattr(etf, "gram_tiles", refuse)
    im = gram.im.copy()
    im[3, 7] += 1
    cert = verify_gram(GaussianRationalMatrix(gram.re, im, gram.den))
    assert cert.failure == "Gram matrix is not Hermitian"
    assert cert.cross_checks["projectionDefect"] == [3, 7]
    # [[1, 1], [0, 0]] is idempotent, G @ G == G, but not Hermitian
    cert = verify_gram(GaussianRationalMatrix(np.array([[1, 1], [0, 0]])))
    assert cert.failure == "Gram matrix is not Hermitian"


def test_hermitian_defect_is_the_first_mismatch_with_the_conjugate_transpose(group5, rep5):
    # row 100 is past the first chunk of rows; a flip below the diagonal is
    # reported at its mirror above it, which comes first row-major
    gram = gram_from_frame(synthesize_frame(group5, rep5))
    assert gram.hermitian_defect() is None
    for i, j, part in [(100, 700, "re"), (700, 100, "re"), (100, 700, "im"), (700, 100, "im")]:
        re, im = gram.re.copy(), gram.im.copy()
        (re if part == "re" else im)[i, j] += 1
        tampered = GaussianRationalMatrix(re, im, gram.den)
        want = first_mismatch(tampered, GaussianRationalMatrix(re.T, -im.T, gram.den))
        assert want == (100, 700) and tampered.hermitian_defect() == want


def _parent_defects(gram):
    """The Hermitian and projection defects as whole-matrix comparisons find
    them: gram against its conjugate transpose, then the materialized G^H G
    against G."""
    hermitian = first_mismatch(gram, GaussianRationalMatrix(gram.re.T, -gram.im.T, gram.den))
    if hermitian is not None:
        return "Gram matrix is not Hermitian", hermitian
    re, im = np.zeros((2,) + gram.shape, dtype=np.int64)
    exact_gram(gram.re, gram.im, (re, im))
    return "Gram matrix is not a projection", first_mismatch(
        GaussianRationalMatrix(re, im, gram.den ** 2), gram)


def test_tiled_checks_report_the_whole_matrix_defect(monkeypatch, group3, rep3):
    # 10-entry tiles, which do not divide N = 64 or m = 28: the last tile is
    # 4 x 4 in the Gram and 8 x 8 in frame frame^H.  One-entry flips in that
    # tile, and seeded Hermitian pair flips anywhere, must be reported at the
    # entry the whole-matrix comparison reports
    monkeypatch.setattr(exact, "_TILE", 10)
    frame = synthesize_frame(group3, rep3)
    gram = gram_from_frame(frame)
    identity = GaussianRationalMatrix(np.eye(64, dtype=np.int64))
    cases = []
    for base, i, j, part, delta in [
        (gram, 62, 61, "im", 1),       # not Hermitian
        (gram, 63, 63, "re", 1),       # Hermitian, not a projection
        (gram, 61, 62, "re", 2),       # with its mirror below
        (identity, 63, 63, "re", 3),   # the defect is in the last tile too
        (identity, 61, 62, "re", 3),
    ]:
        re, im = base.re.copy(), base.im.copy()
        (re if part == "re" else im)[i, j] += delta
        if (i, j, part) != (62, 61, "im"):
            (re if part == "re" else im)[j, i] += delta if part == "re" else -delta
        cases.append(GaussianRationalMatrix(re, im, base.den))
    # row 1 has its only mismatch at (1, 25), in the band's third tile; the
    # band's first tile has one at (5, 5), a later row
    re = np.zeros((64, 64), dtype=np.int64)
    re[1, 1] = re[1, 25] = re[25, 1] = 1
    re[5, 5] = 4
    cases.append(GaussianRationalMatrix(re, None, 2))
    rng = np.random.default_rng(2)
    for _ in range(6):
        i, j = sorted(rng.integers(0, 64, size=2))
        re = gram.re.copy()
        re[i, j] += 1
        re[j, i] += 1 if i != j else 0
        cases.append(GaussianRationalMatrix(re, gram.im, gram.den))
    for tampered in cases:
        cert = verify_gram(tampered)
        failure, defect = _parent_defects(tampered)
        assert (cert.failure, cert.cross_checks["projectionDefect"]) == (failure, list(defect))
    found = [tuple(verify_gram(c).cross_checks["projectionDefect"]) for c in cases[:6]]
    assert found == [(61, 62), (0, 63), (0, 61), (63, 63), (61, 61), (1, 25)]

    def parent_parseval(f):
        re, im = np.zeros((2, f.rows, f.rows), dtype=np.int64)
        exact_gram(f.re.T, f.im.T, (re, im))
        return first_mismatch(GaussianRationalMatrix(re, im, 1 << -f.log2_scale_sq),
                              GaussianRationalMatrix.identity(f.rows))

    for i, j in [(27, 63), (20, 60), (27, 0), (0, 0)]:
        re = frame.re.copy()
        re[i, j] = 1 - re[i, j]
        tampered = FrameMatrix(re, frame.im, frame.log2_scale_sq)
        defect = parseval_defect(tampered)
        assert defect is not None and defect == parent_parseval(tampered)


def _orbit_flipped(gram, q, x, y, x2, y2):
    """gram with the orbit of entry ((x, y), (x2, y2)) under the central
    translations y -> y + t, and the mirror of that orbit, negated: it stays
    Hermitian and commutes with the translations still."""
    t = np.arange(q)
    rows, cols = x * q + (y ^ t), x2 * q + (y2 ^ t)
    mask = np.zeros(gram.shape, dtype=bool)
    mask[rows, cols] = mask[cols, rows] = True
    re, im = gram.re.copy(), gram.im.copy()
    re[mask], im[mask] = -re[mask], -im[mask]
    return GaussianRationalMatrix(re, im, gram.den)


@pytest.mark.parametrize("n", [3, 5])
def test_walsh_block_check_reports_the_whole_matrix_defect(monkeypatch, request, n):
    # a flipped orbit leaves the Gram invariant, so its Walsh blocks are
    # squared (q columns wide); one fails, and the whole-Gram walk (N wide)
    # names the entry the whole-matrix comparison names
    group, rep = (request.getfixturevalue(f"{name}{n}") for name in ("group", "rep"))
    gram = gram_from_frame(synthesize_frame(group, rep))
    q = group.field.order
    widths, tiles = [], etf.gram_tiles
    monkeypatch.setattr(etf, "gram_tiles", lambda re, im: (widths.append(re.shape[1]),
                                                           tiles(re, im))[1])
    rng = np.random.default_rng(n)
    for x, y, x2, y2 in [(0, 0, 0, 0), (q - 1, 3, 0, 5), (2, 1, 2, 6),
                         *rng.integers(0, q, size=(3 if n == 3 else 0, 4)).tolist()]:
        tampered = _orbit_flipped(gram, q, x, y, x2, y2)
        assert tampered.hermitian_defect() is None and etf._centre_order(tampered) == q
        widths.clear()
        cert = verify_gram(tampered)
        failure, defect = _parent_defects(tampered)
        assert failure == "Gram matrix is not a projection"
        assert (cert.failure, cert.cross_checks["projectionDefect"]) == (failure, list(defect))
        assert set(widths[:-1]) == {q} and widths[-1] == q * q


def test_verify_gram_squares_only_the_walsh_blocks_n5(monkeypatch, group5, rep5):
    # the n = 5 Gram certifies with no product wider than its 32 x 32 blocks,
    # and its certificate is the one the whole-Gram product gives
    gram = gram_from_frame(synthesize_frame(group5, rep5))
    with monkeypatch.context() as patch:
        patch.setattr(etf, "_centre_order", lambda gram: 1)
        whole = verify_gram(gram).to_json_dict()
    tiles = etf.gram_tiles

    def narrow(re, im):
        assert re.shape[1] <= 32, f"a product {re.shape[1]} columns wide"
        return tiles(re, im)

    monkeypatch.setattr(etf, "gram_tiles", narrow)
    cert = verify_gram(gram)
    assert cert.verdict == "OPTIMAL" and cert.to_json_dict() == whole


def test_gram_certificates_do_not_depend_on_the_centre(monkeypatch, group3, rep3):
    # a 4^n Gram that does not commute with the translations, sizes that are
    # not 4^n, and the srg idempotent, which does: each certificate is the one
    # the whole-Gram product gives, byte for byte
    from linepack.scheme import gram_projector, srg_scheme
    gram = gram_from_frame(synthesize_frame(group3, rep3))
    order = np.random.default_rng(3).permutation(64)
    re = gram.re.copy()
    re[3, 7] += 2
    re[7, 3] += 2
    cases = {"permuted": (GaussianRationalMatrix(gram.re[order][:, order],
                                                 gram.im[order][:, order], gram.den), 1),
             "pair flipped": (GaussianRationalMatrix(re, gram.im, gram.den), 1),
             "mercedes": (_mercedes(), 1),
             # invariant and a projection, its diagonal 1 on slab x = 0 only
             "one slab": (GaussianRationalMatrix(np.diag(np.arange(64) < 8).astype(np.int64)), 8)}
    for params, q in [((16, 6, 2, 2), 4), ((9, 4, 1, 2), 1)]:
        desc, report = srg_scheme(*params)
        cases[params] = gram_projector(desc, report.d_subset), q
    for name, (case, q) in cases.items():
        assert etf._centre_order(case) == q, name
        got = json.dumps(verify_gram(case).to_json_dict(), sort_keys=True)
        with monkeypatch.context() as patch:
            patch.setattr(etf, "_centre_order", lambda gram: 1)
            assert json.dumps(verify_gram(case).to_json_dict(), sort_keys=True) == got, name
    assert verify_gram(cases["permuted"][0]).verdict == "OPTIMAL"
    assert verify_gram(cases["one slab"][0]).failure == "diagonal is not constant"


@pytest.mark.parametrize("name, budget_mib", [
    ("verify_gram", 8),           # 20.5 MiB when G^2 and a transposed copy were made
    ("verify_gram_read", 8),      # the same check of the int8 Gram read from its file
    ("parseval_defect", 3.75),    # 8.5 MiB when the m x m product and identity were made
    ("_welch_pattern", 1),        # 16.0 MiB when the N x N squared moduli were made
    ("gram_from_frame", 8),       # 32.0 MiB with the int64 frame and a reduced copy,
                                  # 18.75 MiB with int64 accumulators
    ("verify_frame", 4),          # 18.75 MiB when the int64 N x N Gram was made
    ("read_matrix_file", 4),      # 16.2 MiB into an int64 pair, 25.1 MiB with the text
    ("read_matrix_file_frame", 2),  # 7.9 MiB into an int64 pair
    ("write_frame_file", 1),      # 3.0 MiB in chunks of 2^16 entries
    ("write_gram_file", 1),       # 3.0 MiB likewise
])
def test_checks_stay_within_memory_budgets_n5(tmp_path, group5, rep5, name, budget_mib):
    # each budget is below the arrays the function no longer holds; the Gram
    # the checks read is the int8 pair (2 MiB), made untraced, and
    # gram_from_frame holds int16 accumulators (4 MiB) and that pair
    frame = synthesize_frame(group5, rep5)
    gram = gram_from_frame(frame)
    m, num = frame_dimensions(5)
    if name in ("read_matrix_file", "verify_gram_read"):
        write_gram_file(tmp_path / "gram.mat", gram)
    if name == "read_matrix_file_frame":
        write_frame_file(tmp_path / "frame.mat", frame.rows, [frame])
    read = read_matrix_file(tmp_path / "gram.mat") if name == "verify_gram_read" else None
    passes = {"verify_gram": lambda: verify_gram(gram).verdict == "OPTIMAL",
              "verify_gram_read": lambda: verify_gram(read).verdict == "OPTIMAL",
              "parseval_defect": lambda: parseval_defect(frame) is None,
              "_welch_pattern": lambda: _pattern(gram, m, num)[0] is None,
              "verify_frame": lambda: verify_frame(frame).verdict == "OPTIMAL",
              "gram_from_frame": lambda: gram_from_frame(frame) == gram,
              "read_matrix_file": lambda: read_matrix_file(tmp_path / "gram.mat").den == 64,
              "read_matrix_file_frame": lambda: read_matrix_file(
                  tmp_path / "frame.mat").log2_scale_sq == -8,
              "write_frame_file": lambda: write_frame_file(
                  tmp_path / "frame.mat", frame.rows, [frame]) is None,
              "write_gram_file": lambda: write_gram_file(tmp_path / "gram.mat", gram) is None}[name]
    tracemalloc.start()
    try:
        assert passes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget_mib * (1 << 20), f"{name}: {peak / (1 << 20):.2f} MiB"


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
            assert _entry(gram, i, j) == (Fraction(re, 16), Fraction(im, 16))


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
                 if _entry(a, i, j) != _entry(b, i, j)), None)
    assert first_mismatch(a, b) == want
    assert first_mismatch(b, a) == want
    assert (a == b) is (want is None)
    # a one-row a broadcasts against the taller matrix, so only the shape check tells them apart
    tall = GaussianRationalMatrix(np.vstack([a.re, a.re]), np.vstack([a.im, a.im]), a.den)
    assert a != tall and tall != a


def test_first_mismatch_crosses_row_chunks(monkeypatch):
    # 64 rows of 5 entries are compared at a time; the row index must count the rows before
    monkeypatch.setattr(scheme, "_COMPARE_ENTRIES", 64 * 5)
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
    want = _object_gram([frame])
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
    write_frame_file(tmp_path / "frame2.mat", frame.rows,
                     etf.frame_factors(group3, rep3).blocks())
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


def test_reader_reports_one_row_too_few_or_too_many(tmp_path, group3, table3):
    gram = gram_character(group3, table3, group3.inverse_product_index_matrix)
    write_gram_file(tmp_path / "gram.mat", gram)
    head, *rows = (tmp_path / "gram.mat").read_text(encoding="ascii").splitlines(keepends=True)
    for body, found in ((rows[:-1], 63), (rows + rows[:1], 65)):
        (tmp_path / "bad.mat").write_text(head + "".join(body), encoding="ascii")
        with pytest.raises(MatrixParseError, match=f"^expected 64 rows, found {found}$"):
            read_matrix_file(tmp_path / "bad.mat")


_FAULT_FRAME = "LINEPACK-MATRIX v1 rows=4 cols=2 scale_log2_num=-2 scale_log2_den=2\n"
_FAULT_GRAM = "LINEPACK-MATRIX v1 rows=4 cols=2 scale_log2_num=0 scale_log2_den=1\n"


@pytest.mark.parametrize("chunk_entries", [None, 2, 4])  # one chunk, a row each, two rows each
@pytest.mark.parametrize("head, rows, message", [
    (_FAULT_FRAME, ["0;0 1;0", "1;0 x;0", "0;0", "0;0 0;0"], "bad entry in row 1: "),
    (_FAULT_FRAME, ["0;0 1;0", "0;0", "1;0 x;0", "0;0 0;0"], "row 1 has 1 entries, expected 2"),
    (_FAULT_FRAME, ["0;0 1;0", "x;0", "1;0 x;0", "0;0 0;0"], "row 1 has 1 entries, expected 2"),
    (_FAULT_FRAME, ["0;0 1;0", "1;0 0;0", "0;0 1;0", "1;0 x;0"], "bad entry in row 3: "),
    (_FAULT_FRAME, ["0;0 1;0", "9999999999999999999;0 0;0", "x;0 0;0", "0;0 0;0"],
     "entry in row 1 is beyond int64"),
    (_FAULT_GRAM, ["0/1;0/1 1/1;0/1", "1/0;0/1 0/1;0/1", "1/2;0/1 x", "0/1;0/1 0/1;0/1"],
     "zero denominator"),
    # the lcm named is the running one at row 2, 15 * 2^62, not the chunk's 105 * 2^62
    (_FAULT_GRAM, ["1/3;0/1 0/1;0/1", "0/1;0/1 1/5;0/1", f"1/{2 ** 62};0/1 0/1;0/1",
                   "1/7;0/1 0/1;0/1"], f"common denominator {15 * 2 ** 62} exceeds int64"),
], ids=["bad-token-before-short-row", "short-row-before-bad-token", "both-in-one-row",
        "bad-token-first-used-in-a-later-chunk", "beyond-int64-before-bad-token",
        "zero-denominator-before-bad-token", "running-lcm-beyond-int64"])
def test_reader_reports_the_earliest_faulty_row(tmp_path, monkeypatch, chunk_entries, head,
                                                rows, message):
    # the row count comes first, then the earliest faulty row, and in a row its
    # entry count before its tokens, however the rows fall into chunks
    if chunk_entries is not None:
        monkeypatch.setattr(etf, "_CHUNK_ENTRIES", chunk_entries)
    path = tmp_path / "m.mat"
    path.write_text(head + "\n".join(rows) + "\n")
    with pytest.raises(MatrixParseError, match=f"^{re.escape(message)}"):
        read_matrix_file(path)
    path.write_text(head + "\n".join(rows[:3]) + "\n")
    with pytest.raises(MatrixParseError, match="^expected 4 rows, found 3$"):
        read_matrix_file(path)


def test_reader_tells_tokens_apart_by_every_byte(tmp_path):
    # tokens sharing their first 8 bytes, or differing only by a trailing NUL,
    # are distinct tokens; one that fails the grammar is never read as another
    head = "LINEPACK-MATRIX v1 rows=1 cols=3 scale_log2_num=0 scale_log2_den=1\n"
    path = tmp_path / "m.mat"
    path.write_text(head + "123456/7;0/1 123456/7;1/1 123456/7;1/3\n")
    got = read_matrix_file(path)
    assert (got.re.tolist(), got.im.tolist(), got.den) == ([[370368] * 3], [[0, 21, 7]], 21)
    long = "1" * 100 + "/1;0/1"
    for row in ("1/1;0/1 1/1;0/1\0 1/1;0/1", f"{long} {long[:-1]}2 1/1;0/1",
                f"1/1;0/1 {long} {long}"):
        path.write_text(head + row + "\n")
        with pytest.raises(MatrixParseError, match="^bad entry in row 0: "):
            read_matrix_file(path)


def test_reader_allocates_nothing_for_a_body_too_short(tmp_path):
    # 1000 x 1000 entries take 16 MiB as int64 pairs; one row cannot hold them
    path = tmp_path / "short.mat"
    path.write_text("LINEPACK-MATRIX v1 rows=1000 cols=1000 scale_log2_num=-2 "
                    "scale_log2_den=2\n" + " ".join(["0;0"] * 1000) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(MatrixParseError, match="^expected 1000 rows, found 1$"):
            read_matrix_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["frame.mat", "gram.mat"])
def test_reader_reads_crlf_and_blank_lines_as_the_plain_file(tmp_path, group3, rep3, name):
    frame = synthesize_frame(group3, rep3)
    plain = tmp_path / name
    if name == "frame.mat":
        write_frame_file(plain, frame.rows, [frame])
    else:
        write_gram_file(plain, gram_from_frame(frame))
    want = read_matrix_file(plain)
    text = plain.read_text(encoding="ascii")
    for variant in (text.replace("\n", "\r\n"), text.replace("\n", "\r"),
                    text.replace("\n", "\n\n\r\n") + "\n\n"):
        (tmp_path / "v.mat").write_bytes(variant.encode("ascii"))
        got = read_matrix_file(tmp_path / "v.mat")
        if name == "frame.mat":
            assert got.log2_scale_sq == want.log2_scale_sq
            assert np.array_equal(got.re, want.re) and np.array_equal(got.im, want.im)
        else:
            assert got.den == want.den and got == want


def test_reader_holds_the_suzuki_files_as_int8(tmp_path, group5, rep5):
    # every n = 5 frame entry is 0, +-1 or +-i, every Gram entry 31, +-1 or +-i over 64
    frame = synthesize_frame(group5, rep5)
    gram = gram_from_frame(frame)
    write_frame_file(tmp_path / "frame.mat", frame.rows, [frame])
    write_gram_file(tmp_path / "gram.mat", gram)
    back = read_matrix_file(tmp_path / "frame.mat")
    assert back.re.dtype == back.im.dtype == np.int8
    assert np.array_equal(back.re, frame.re) and np.array_equal(back.im, frame.im)
    back = read_matrix_file(tmp_path / "gram.mat")
    assert back.re.dtype == back.im.dtype == np.int8
    assert back.den == 64 and back == gram


_FRAME_HEAD = "LINEPACK-MATRIX v1 rows={} cols=2 scale_log2_num=-2 scale_log2_den=2\n"
_GRAM_HEAD = "LINEPACK-MATRIX v1 rows={} cols=2 scale_log2_num=0 scale_log2_den=1\n"


@pytest.mark.parametrize("rational", [False, True], ids=["frame", "gram"])
@pytest.mark.parametrize("chunk_entries", [1, 64])
def test_reader_widens_at_the_first_value_beyond_int8(tmp_path, monkeypatch, chunk_entries,
                                                      rational):
    # 127 and -128 fit int8; 128 or -129 in a later row widens the rows already
    # read, in a chunk of their own when a chunk holds one entry
    monkeypatch.setattr(etf, "_CHUNK_ENTRIES", chunk_entries)
    entry = "{}/1;{}/1" if rational else "{};{}"
    rows = [[(127, -128), (0, 1)], [(-1, 0), (-128, 127)]]
    path = tmp_path / "m.mat"
    for big in (None, 128, -129):
        body = rows + ([[(0, big), (big, 0)]] if big else [])
        head = (_GRAM_HEAD if rational else _FRAME_HEAD).format(len(body))
        path.write_text(head + "".join(" ".join(entry.format(*e) for e in row) + "\n"
                                       for row in body))
        got = read_matrix_file(path)
        assert got.re.dtype == got.im.dtype == (np.int64 if big else np.int8)
        assert got.re.tolist() == [[e[0] for e in row] for row in body]
        assert got.im.tolist() == [[e[1] for e in row] for row in body]


@pytest.mark.parametrize("chunk_entries", [1, 64])
@pytest.mark.parametrize("first, second, values, den, dtype", [
    ("100/1", "1/2", [200, 1], 2, np.int64),   # 100 rescaled leaves int8
    ("-64/1", "1/2", [-128, 1], 2, np.int8),
    ("-1/1", "1/128", [-128, 1], 128, np.int8),  # an int8 row times a factor beyond int8
    ("1/1", "1/128", [128, 1], 128, np.int64),
    ("0/1", "1/1000", [0, 1], 1000, np.int8),
])
def test_reader_widens_before_a_rescale_leaves_int8(tmp_path, monkeypatch, chunk_entries,
                                                    first, second, values, den, dtype):
    monkeypatch.setattr(etf, "_CHUNK_ENTRIES", chunk_entries)
    head = "LINEPACK-MATRIX v1 rows=2 cols=1 scale_log2_num=0 scale_log2_den=1\n"
    path = tmp_path / "g.mat"
    path.write_text(head + f"{first};0/1\n{second};0/1\n")
    got = read_matrix_file(path)
    assert (got.re.ravel().tolist(), got.den, got.re.dtype) == (values, den, dtype)
    assert got.im.dtype == dtype and not got.im.any()


@pytest.mark.parametrize("chunk_entries", [1, 64])
def test_reader_rescale_beyond_int64_is_a_parse_error(tmp_path, monkeypatch, chunk_entries):
    # row 1's denominator 2 doubles row 0's value: 2^62 - 1 becomes 2^63 - 2 and
    # fits, 2^62 becomes 2^63 and does not; with 1-entry chunks the index is
    # reset, so the filled row alone, not the token table, holds the value
    monkeypatch.setattr(etf, "_CHUNK_ENTRIES", chunk_entries)
    head = "LINEPACK-MATRIX v1 rows=2 cols=1 scale_log2_num=0 scale_log2_den=1\n"
    path = tmp_path / "g.mat"
    path.write_text(head + f"{2 ** 62 - 1}/1;0/1\n1/2;0/1\n")
    got = read_matrix_file(path)
    assert (got.re.ravel().tolist(), got.den) == ([2 ** 63 - 2, 1], 2)
    path.write_text(head + f"{2 ** 62}/1;0/1\n1/2;0/1\n")
    with pytest.raises(MatrixParseError, match="int64"):
        read_matrix_file(path)


@pytest.mark.parametrize("cols", [1, 2, 5, 11, 17])
def test_reader_cuts_rows_as_the_writer_does(tmp_path, monkeypatch, cols):
    # widths that are not perfect squares end each row in a shorter tail
    # segment (11 = 3 x 3 + 2); repeated and new segments read back exactly
    # at every chunking
    rng = np.random.default_rng(cols)
    re = rng.integers(-2, 3, size=(9, cols))
    im = rng.integers(-1, 2, size=(9, cols))
    re[3], im[3] = re[1], im[1]  # a repeated row: every segment held already
    im[5] = 300  # beyond int8: the rows read so far and the table widen once
    path = tmp_path / "m.mat"
    write_frame_file(path, 9, [FrameMatrix(re, im, -2)])
    assert etf._segment_runs(11) == [(3, 3), (2, 1)]
    for chunk_entries in (etf._CHUNK_ENTRIES, 1, cols, 2 * cols + 1):
        monkeypatch.setattr(etf, "_CHUNK_ENTRIES", chunk_entries)
        got = read_matrix_file(path)
        assert got.re.dtype == np.int64 and got.log2_scale_sq == -2
        assert got.re.tolist() == re.tolist() and got.im.tolist() == im.tolist()


@pytest.mark.parametrize("chunk_entries", [None, 4, 8])  # one chunk, a row each, two rows each
def test_reader_matches_a_segment_first_used_after_a_held_repeat(tmp_path, monkeypatch,
                                                                 chunk_entries):
    # row 1 repeats row 0's held segment, then brings a new one with a bad entry
    if chunk_entries is not None:
        monkeypatch.setattr(etf, "_CHUNK_ENTRIES", chunk_entries)
    head = "LINEPACK-MATRIX v1 rows=3 cols=4 scale_log2_num=-2 scale_log2_den=2\n"
    path = tmp_path / "m.mat"
    path.write_text(head + "1;0 0;1 1;0 0;1\n1;0 0;1 1;0 x;1\n0;0 0;0 0;0 0;0\n")
    with pytest.raises(MatrixParseError, match="^bad entry in row 1: "):
        read_matrix_file(path)
    path.write_text(head + "1;0 0;1 1;0 0;1\n1;0 0;1 1;0 0;-1\n1;0 0;1 1;0 0;-1\n")
    got = read_matrix_file(path)
    assert got.im.tolist() == [[0, 1, 0, 1], [0, 1, 0, -1], [0, 1, 0, -1]]


@pytest.mark.parametrize("chunk_entries", [None, 4])
def test_reader_rescales_held_segments_as_the_denominator_grows(tmp_path, monkeypatch,
                                                                chunk_entries):
    # the segment of row 0, over 2, is held when row 1 brings thirds: the
    # held values and the rows already read are rescaled to sixths, and
    # row 2, which only repeats held segments, is read over sixths too
    if chunk_entries is not None:
        monkeypatch.setattr(etf, "_CHUNK_ENTRIES", chunk_entries)
    a, b, c = "1/2;0/1 -1/2;1/2", "1/3;0/1 0/1;-2/3", "5/1;0/1 1/1;0/1"
    rows = [f"{a} {a}", f"{a} {b}", f"{b} {a}", f"{c} {a}"]
    head = "LINEPACK-MATRIX v1 rows=4 cols=4 scale_log2_num=0 scale_log2_den=1\n"
    path = tmp_path / "g.mat"
    path.write_text(head + "\n".join(rows) + "\n")
    got = read_matrix_file(path)
    want = [[(Fraction(p), Fraction(q)) for p, q in (e.split(";") for e in row.split())]
            for row in rows]
    assert got.den == 6 and got.re.dtype == np.int8
    assert got.re.tolist() == [[int(p * 6) for p, _ in row] for row in want]
    assert got.im.tolist() == [[int(q * 6) for _, q in row] for row in want]


def test_reader_reads_a_gram_of_distinct_entries(tmp_path):
    # 1024 x 1024 entries that never repeat: every segment is new, and the
    # held segments are dropped as they pass the cap
    num = 1024
    values = np.arange(num * num, dtype=np.int64).reshape(num, num) - num * num // 2
    gram = GaussianRationalMatrix(values, values % 7 - 3, 5)
    write_gram_file(tmp_path / "g.mat", gram)
    got = read_matrix_file(tmp_path / "g.mat")
    assert got.re.dtype == np.int64 and got.den == gram.canonical().den
    assert got == gram


_fractions = st.tuples(st.integers(-10 ** 15, 10 ** 15), st.integers(-60, 60).filter(bool))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4))
def test_gram_parser_matches_fraction_reference(tmp_path_factory, data, rows, cols):
    # unreduced fractions and negative denominators, which the writer never emits;
    # read again with 1-entry chunks, so every row is its own chunk, later rows
    # bring new denominators and the rows already read are rescaled
    entries = data.draw(st.lists(st.tuples(_fractions, _fractions),
                                 min_size=rows * cols, max_size=rows * cols))
    path = tmp_path_factory.mktemp("parse") / "g.mat"
    lines = [" ".join(f"{p}/{q};{r}/{s}" for (p, q), (r, s) in entries[i * cols:(i + 1) * cols])
             for i in range(rows)]
    path.write_text(f"LINEPACK-MATRIX v1 rows={rows} cols={cols} scale_log2_num=0 "
                    "scale_log2_den=1\n" + "\n".join(lines) + "\n")
    values = [(Fraction(p, q), Fraction(r, s)) for (p, q), (r, s) in entries]
    den = math.lcm(*(v.denominator for pair in values for v in pair))
    for chunk_entries in (etf._CHUNK_ENTRIES, 1):
        with mock.patch.object(etf, "_CHUNK_ENTRIES", chunk_entries):
            if max(den, *(abs(v) * den for pair in values for v in pair)) >= 1 << 63:
                with pytest.raises(MatrixParseError, match="int64"):
                    read_matrix_file(path)
                continue
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


_frame_parts = {np.int8: st.integers(-128, 127),
                np.int64: st.one_of(st.integers(-2, 2), st.integers(1 - 2 ** 63, 2 ** 63 - 1))}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 5),
       dtype=st.sampled_from([np.int8, np.int64]), log2_scale_sq=st.integers(-60, 0))
def test_frame_writer_matches_join_reference(tmp_path_factory, data, rows, cols, dtype,
                                             log2_scale_sq):
    # written whole and with one-row chunks, so every line ends a chunk's gather
    parts = [np.array(data.draw(st.lists(_frame_parts[dtype], min_size=rows * cols,
                                         max_size=rows * cols)),
                      dtype=dtype).reshape(rows, cols) for _ in range(2)]
    frame = FrameMatrix(*parts, log2_scale_sq)
    want = [f"LINEPACK-MATRIX v1 rows={rows} cols={cols} scale_log2_num={log2_scale_sq} "
            "scale_log2_den=2"]
    want += [" ".join(f"{a};{b}" for a, b in zip(parts[0][i].tolist(), parts[1][i].tolist()))
             for i in range(rows)]
    path = tmp_path_factory.mktemp("write") / "f.mat"
    for chunk_entries in (etf._CHUNK_ENTRIES, 1):
        with mock.patch.object(etf, "_CHUNK_ENTRIES", chunk_entries):
            write_frame_file(path, rows, [frame])
        assert path.read_bytes() == ("\n".join(want) + "\n").encode("ascii")
    back = read_matrix_file(path)
    assert back.log2_scale_sq == log2_scale_sq
    assert np.array_equal(back.re, parts[0]) and np.array_equal(back.im, parts[1])


def _join_reference(frame: FrameMatrix) -> bytes:
    lines = [f"LINEPACK-MATRIX v1 rows={frame.rows} cols={frame.cols} "
             f"scale_log2_num={frame.log2_scale_sq} scale_log2_den=2"]
    lines += [" ".join(f"{a};{b}" for a, b in zip(re.tolist(), im.tolist()))
              for re, im in zip(frame.re, frame.im)]
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("shape, distinct", [((6, 11), False), ((1, 1), False), ((9, 30), True)],
                         ids=["tail-segment", "one-entry", "all-distinct"])
def test_frame_writer_matches_join_reference_on_its_segments(tmp_path, monkeypatch, shape,
                                                             distinct):
    # 11 columns are three segments of 3 and a tail of 2; rows repeat segments
    # across chunks, so encoded segments are reused; all-distinct entries
    # share no segment; each written whole, in one-row chunks, and with the
    # encoded segments dropped after every chunk
    rows, cols = shape
    rng = np.random.default_rng(rows * cols)
    if distinct:
        parts = np.arange(2 * rows * cols, dtype=np.int64).reshape(2, rows, cols) - rows * cols
    else:
        parts = rng.choice(np.array([-1, 0, 1], dtype=np.int8), (2, 2, cols))[:, rng.integers(
            0, 2, rows)]
    frame = FrameMatrix(parts[0], parts[1], -3)
    want = _join_reference(frame)
    for chunk_entries in (etf._CHUNK_ENTRIES, 1, 0):
        monkeypatch.setattr(etf, "_CHUNK_ENTRIES", chunk_entries)
        write_frame_file(tmp_path / "f.mat", rows, [frame])
        assert (tmp_path / "f.mat").read_bytes() == want
    back = read_matrix_file(tmp_path / "f.mat")
    assert np.array_equal(back.re, frame.re) and np.array_equal(back.im, frame.im)


def test_frame_writer_keeps_segments_of_each_dtype_apart(tmp_path):
    # at 65 columns a row is eight segments of 8 and a tail of 1: an int8
    # segment [1, 0, ..., 0] and an int64 tail 1 have the same 16 key bytes,
    # and each block must still be written as its own entries
    re8 = np.zeros((1, 65), dtype=np.int8)
    re8[0, 0] = 1
    re64 = np.full((1, 65), 7, dtype=np.int64)
    re64[0, -1] = 1
    blocks = [FrameMatrix(re8, np.zeros_like(re8), 0), FrameMatrix(re64, np.zeros_like(re64), 0)]
    write_frame_file(tmp_path / "f.mat", 2, blocks)
    want = _join_reference(FrameMatrix(np.concatenate([re8, re64]), np.zeros((2, 65), np.int64), 0))
    assert (tmp_path / "f.mat").read_bytes() == want


def test_frame_writer_holds_a_bounded_segment_cache(tmp_path, monkeypatch):
    # 2^14 distinct entries are 0.5 MB of text and 256 KiB of segment keys; in
    # one-row chunks of 2^8 entries the writer drops its encoded segments once
    # they pass 16 KiB, so it holds about one row's worth, not the file
    monkeypatch.setattr(etf, "_CHUNK_ENTRIES", 1 << 8)
    parts = np.arange(2 * 64 * 256, dtype=np.int64).reshape(2, 64, 256) << 20
    frame = FrameMatrix(parts[0], parts[1], 0)
    tracemalloc.start()
    try:
        write_frame_file(tmp_path / "f.mat", 64, [frame])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18, f"{peak / (1 << 20):.2f} MiB"
    assert (tmp_path / "f.mat").read_bytes() == _join_reference(frame)


def test_reader_holds_a_bounded_segment_table(tmp_path, monkeypatch):
    # the reader drops its held segments past 16 KiB as the writer does: it
    # holds the 256 KiB result and about one row's segments, not 1.8 MiB of
    # every segment's text and values
    monkeypatch.setattr(etf, "_CHUNK_ENTRIES", 1 << 8)
    parts = np.arange(2 * 64 * 256, dtype=np.int64).reshape(2, 64, 256) << 20
    write_frame_file(tmp_path / "f.mat", 64, [FrameMatrix(parts[0], parts[1], 0)])
    tracemalloc.start()
    try:
        back = read_matrix_file(tmp_path / "f.mat")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19, f"{peak / (1 << 20):.2f} MiB"
    assert np.array_equal(back.re, parts[0]) and np.array_equal(back.im, parts[1])


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
