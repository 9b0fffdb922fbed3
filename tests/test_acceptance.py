"""Acceptance gate: one test per shipped guarantee, exact tolerances.

Every check is exact integer/rational arithmetic (tolerance zero); the
only numeric bounds here are the stated runtime ceilings.  Run with
`pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np

from linepack import (
    enumerate_tuples,
    gram_projector,
    group_scheme,
    hyperdiff_check,
    srg_scheme,
    verify_gram,
    welch_bound_sq,
)
from linepack.cli import main
from linepack.etf import _routes_agree, frame_factors, read_matrix_file, verify_factors
from linepack.heis import MonomialMatrix, heisenberg_generators


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


TABLE_ROWS = {
    (64, 7, 2, 28), (256, 30, 2, 120), (256, 34, 2, 136),
    (320, 22, 2, 88), (320, 58, 2, 232), (576, 69, 2, 276),
    (576, 75, 2, 300), (640, 18, 2, 72), (896, 45, 2, 180),
    (896, 179, 2, 716),
}


def test_criterion_1_build_n3_end_to_end(tmp_path, capsys):
    t0 = time.monotonic()
    out = tmp_path / "n3"
    code = main(["build", "--n", "3", "--out", str(out)])
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    with capsys.disabled():
        cert = json.loads((out / "certificate.json").read_text())
        frame = read_matrix_file(out / "frame.mat")
        ok = code == 0 and cert["verdict"] == "OPTIMAL"
        ok &= (frame.rows, frame.cols) == (28, 64)
        row_re = frame.re @ frame.re.T + frame.im @ frame.im.T
        row_im = frame.im @ frame.re.T - frame.re @ frame.im.T
        ok &= np.array_equal(row_re, 32 * np.eye(28, dtype=np.int64)) and not row_im.any()
        gram = read_matrix_file(out / "gram.mat")
        sq, den = gram.abs_sq_int()
        off = sq[~np.eye(64, dtype=bool)]
        ok &= off.size == 4032
        ok &= off.min() == off.max() and Fraction(int(off[0]), den) == Fraction(1, 256)
        ok &= welch_bound_sq(28, 64)[1] == Fraction(1, 256)
        ok &= cert["offDiagModulusSquared"] == "1/256"
        ok &= elapsed < 5.0
        report(1, bool(ok),
               f"build --n 3: 28x64 frame, Parseval 2^5 I, 4032 off-diagonal "
               f"squared moduli = 1/256 = Welch^2, OPTIMAL, {elapsed:.2f}s < 5s")


def _three_way_full(group, table, rep):
    """(entries compared, agree, OPTIMAL) of the full route: all N^2 entries
    from the factored walk, with both table routes compared on it."""
    found = {}
    cert = verify_factors(frame_factors(group, rep), routes=(group, table, found))
    return group.order ** 2, _routes_agree(found), cert.verdict == "OPTIMAL"


def test_criterion_2_three_way_gram_agreement(group3, table3, rep3,
                                              group5, table5, rep5,
                                              group7, table7, rep7, capsys):
    with capsys.disabled():
        e3, agree3, _ = _three_way_full(group3, table3, rep3)
        t5 = time.monotonic()
        e5, agree5, _ = _three_way_full(group5, table5, rep5)
        s5 = time.monotonic() - t5
        t7 = time.monotonic()
        e7, agree7, optimal7 = _three_way_full(group7, table7, rep7)
        s7 = time.monotonic() - t7
        ok = agree3 and e3 == 64 ** 2
        ok &= agree5 and e5 == 1024 ** 2 and s5 < 600
        ok &= agree7 and optimal7 and e7 == 16384 ** 2 and s7 < 120
        report(2, bool(ok),
               f"gram routes agree: 4096 entries (n=3), 1048576 entries "
               f"(n=5, {s5:.1f}s < 600s), {e7} entries "
               f"(n=7, {s7:.1f}s < 120s), zero mismatches")


def test_criterion_3_character_table_suite(table3, table5, capsys):
    with capsys.disabled():
        ok = len(table3.characters) == 22
        ok &= sorted(table3.degrees) == [1] * 8 + [2] * 14
        table3.verify()
        table5.verify()
        for table, flat_sq in ((table3, 4), (table5, 16)):
            nonidentity = range(1, len(table.class_sizes))
            ok &= len(list(nonidentity)) == len(table.class_sizes) - 1
            for ci in nonidentity:
                re, im = table.d_set_sum(ci)
                ok &= re * re + im * im == flat_sq
        nonid3 = int(table3.class_sizes[1:].sum())
        ok &= nonid3 == 63
        report(3, bool(ok),
               "22 irreducibles with degrees {1^8, 2^14}, exact row and column "
               "orthogonality, flat family sums |sum|^2 = 4 on all 63 "
               "nonidentity elements (n=3) and 16 (n=5)")


def test_criterion_4_scheme_axioms_and_krein(scheme3, table3, table5, table7, capsys):
    with capsys.disabled():
        scheme3.verify_axioms()        # (A1)-(A5), exact
        scheme3.verify_idempotents()   # idempotent, orthogonal, sum to I
        scheme3.krein                  # raises if any q < 0
        rep = hyperdiff_check(scheme3, table3.d_set)
        ok = rep.is_hyperdifference
        ok &= all(b == 12 for b in rep.b[1:])
        ok &= Fraction(28 * 27, 63) == 12
        # the larger group schemes, from Q alone: no N x N relation index
        for table, flat_b in ((table5, 240), (table7, 4032)):
            rep = hyperdiff_check(group_scheme(table.group, table), table.d_set)
            ok &= rep.is_hyperdifference and set(rep.b[1:]) == {flat_b}
            ok &= Fraction(rep.m * (rep.m - 1), table.group.order - 1) == flat_b
        ok &= Fraction(496 * 495, 1023) == 240 and Fraction(8128 * 8127, 16383) == 4032
        report(4, bool(ok),
               "scheme axioms (A1)-(A5) exact, idempotents orthogonal and "
               "complete, all Krein parameters >= 0, b_k = 12 = 28*27/63 (n=3), "
               "240 = 496*495/1023 (n=5) and 4032 = 8128*8127/16383 (n=7) on "
               "every nonidentity class")


def test_criterion_5_srg_example(capsys):
    with capsys.disabled():
        t0 = time.monotonic()
        desc, rep = srg_scheme(16, 6, 2, 2)
        cert = verify_gram(gram_projector(desc, rep.d_subset))
        elapsed = time.monotonic() - t0
        ok = desc.meta["eig_plus"] == 2 and desc.meta["eig_minus"] == -2
        ok &= 2 * 6 - 16 == 2 * desc.meta["eig_minus"]
        ok &= cert.verdict == "OPTIMAL"
        ok &= cert.m == 6 and cert.num_vectors == 16
        ok &= cert.off_diag_modulus_sq == Fraction(1, 64)
        ok &= elapsed < 1.0
        report(5, bool(ok),
               f"SRG(16,6,2,2): eigenvalues +/-2, 2k-v = 2*eig_minus, idempotent "
               f"certifies as 6x16 ETF with off-diagonal modulus^2 = 1/64, "
               f"{elapsed:.2f}s < 1s")


def test_criterion_6_heisenberg_relations(rep3, rep5, capsys):
    with capsys.disabled():
        ok = True
        # power and commuting relations, exhaustive for k <= 3
        for k in (1, 2, 3):
            ts, ms = heisenberg_generators(k)
            ident = MonomialMatrix.identity(1 << k)
            for s, t in itertools.product(range(k), repeat=2):
                ok &= ts[s] @ ts[s] == ident and ms[t] @ ms[t] == ident
                ok &= ts[s] @ ts[t] == ts[t] @ ts[s]
                ok &= ms[s] @ ms[t] == ms[t] @ ms[s]
                rhs = ms[t] @ ts[s]
                if s == t:
                    rhs = rhs.times_i_power(2)
                ok &= ts[s] @ ms[t] == rhs
        # exact homomorphism on 10^3 random pairs for n in {3, 5}
        for rep, seed in ((rep3, 101), (rep5, 102)):
            group = rep.group
            q = group.field.order
            rng = random.Random(seed)
            for _ in range(1000):
                a = (rng.randrange(q), rng.randrange(q))
                b = (rng.randrange(q), rng.randrange(q))
                ok &= rep.rep(group.mul(a, b)) == rep.rep(a) @ rep.rep(b)
        # presentation relations over all generator pairs
        for rep in (rep3, rep5):
            field = rep.field
            central = MonomialMatrix.scalar(rep.dim, 2)
            images = [rep.rep((b, 0)) for b in rep.basis]
            for b, img in zip(rep.basis, images):
                want = MonomialMatrix.scalar(rep.dim, 2 * field.trace(field.cube(b)))
                ok &= img @ img == want
            for (bi, fi), (bj, fj) in itertools.product(zip(rep.basis, images),
                                                        repeat=2):
                rhs = fj @ fi
                if field.symplectic_pairing(bi, bj):
                    rhs = rhs @ central
                ok &= fi @ fj == rhs
        report(6, bool(ok),
               "translation/modulation power and commuting relations exhaustive "
               "for k <= 3; representation homomorphism exact on 10^3 random "
               "pairs at n in {3,5}; presentation relations exhaustive over "
               "generator pairs")


def test_criterion_7_search_calibration(capsys):
    with capsys.disabled():
        t0 = time.monotonic()
        default = enumerate_tuples(1023)
        restricted = enumerate_tuples(1023, nonabelian_orders_only=True)
        elapsed = time.monotonic() - t0
        rows = {(t.n, t.k, t.l, t.m) for t in default}
        containment = TABLE_ROWS <= rows          # hard gate
        counts = {"default": len(default), "nonabelian_orders_only": len(restricted)}
        calibrated = [name for name, c in counts.items() if c == 238]
        if not calibrated:
            print(f"  calibration discrepancy table: {counts}")
        ok = containment and elapsed < 10.0 and bool(calibrated)
        report(7, bool(ok),
               f"all ten published parameter rows contained (hard gate); "
               f"counts {counts}; 238 reproduced under flag setting(s) "
               f"{calibrated}; {elapsed:.2f}s < 10s")


def test_criterion_8_integrality_property(capsys):
    with capsys.disabled():
        tuples = enumerate_tuples(1023)
        ok = all((t.m * (t.m - 1)) % (t.n - 1) == 0 for t in tuples)
        ok &= all(t.lam >= 1 for t in tuples)
        report(8, bool(ok),
               f"(n-1) | m(m-1) re-verified over all {len(tuples)} emitted tuples")


def test_criterion_9_determinism(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    code1 = main(["build", "--n", "3", "--out", str(d1), "--threads", "1"])
    code2 = main(["build", "--n", "3", "--out", str(d2), "--threads", "4"])
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    code3 = main(["search", "--max-order", "512", "--out", str(s1)])
    code4 = main(["search", "--max-order", "512", "--out", str(s2)])
    capsys.readouterr()
    with capsys.disabled():
        ok = code1 == code2 == code3 == code4 == 0
        for name in ("frame.mat", "gram.mat", "certificate.json"):
            ok &= (d1 / name).read_bytes() == (d2 / name).read_bytes()
        ok &= s1.read_bytes() == s2.read_bytes()
        report(9, bool(ok),
               "two builds (--threads 1 vs 4) and two searches produced "
               "byte-identical content files")
