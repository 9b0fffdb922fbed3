"""Command-line entry point: reproducible construction, verification, export.

Subcommands
-----------
build    synthesize the frame for odd n in factor form, certify all N^2
         Gram entries from its q^3 values at every n, write the frame,
         the Gram at n <= 5, a certificate, and a run manifest with
         each output's sha256 (exit 0 on OPTIMAL); no sampling, so it
         takes no --samples or --seed
verify   certify a frame or Gram matrix: from n, on build's factored walk,
         all N^2 entries three ways (full, the default) or a random
         block of columns (sample); or parsed from a file, in full
search   enumerate constant-degree parameter candidates as CSV
chartab  emit the exact character table as JSON
gram     compute the Gram matrix by one or more routes and cross-compare
srg      build the 2-class scheme of a strongly regular graph and
         certify the ETF cut out by its designated idempotent

Exit codes: 0 success / verified, 1 mathematical violation, 2 usage or
parse error, a path that cannot be read or written, or a parsed file
whose entries are too large for `exact.check_bound`'s int64 bound, 3
internal error (any other exception); a crash never exits 1.

`--threads` caps the threads of numpy's OpenBLAS for the run.  Content
files contain no timestamps and identical invocations produce
byte-identical files; wall time and other environment-dependent
metadata live only in the manifest.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bgroup, chartab, etf, exact, gf2n, heis, scheme, search

DEFAULT_SEED = 1
DEFAULT_SAMPLES = 100_000
_FULL_BUILD_MAX_N = 5


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _write_json(path: Path, payload: dict, hasher=None) -> None:
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")
    if hasher is not None:
        hasher.update(data)
    path.write_bytes(data)


def _contexts(n: int):
    """(field, group, rep) at n; a command that reads the character table
    builds it from group and rep."""
    field = gf2n.FieldContext(n)
    group = bgroup.GroupContext(field)
    return field, group, heis.RepContext(group)


def _check_build_n(n: int) -> None:
    if n % 2 == 0:
        raise UsageError("n must be odd")
    if not 3 <= n <= 9:
        raise UsageError("n must satisfy 3 <= n <= 9")


def _refuse(args, only: str, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag[2:]) is not None:
            raise UsageError(f"{flag} applies to {only} only")


def _run_plan(args) -> tuple[str, int | None, int | None]:
    """(mode, samples, seed) of `verify --n`, full by default.  --samples and --seed shape only
    the sampled check, so any other mode refuses them and returns None for both."""
    _check_build_n(args.n)
    mode = args.mode or "full"
    if mode != "sample":
        _refuse(args, "--mode sample", "--samples", "--seed")
        return mode, None, None
    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    if samples < 1:
        raise UsageError("--samples must be at least 1")
    return mode, samples, DEFAULT_SEED if args.seed is None else args.seed


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    _check_build_n(args.n)
    if args.float_export and args.n > _FULL_BUILD_MAX_N:
        raise UsageError(f"--float-export is written for n <= {_FULL_BUILD_MAX_N} only")
    t0 = time.monotonic()
    out = Path(args.out or os.environ.get("LINEPACK_OUT") or f"linepack_n{args.n}")
    out.mkdir(parents=True, exist_ok=True)
    field, group, rep = _contexts(args.n)
    factors = etf.frame_factors(group, rep)
    m, num_vectors = etf.frame_dimensions(args.n)
    _, welch_par = etf.welch_bound_sq(m, num_vectors)
    # imported here: only build hashes, and hashlib's OpenSSL is 3.5 MB of RSS
    import hashlib

    sha256 = {}  # each output's hash, fed by its writer as the bytes pass

    def hasher(name: str):
        sha256[name] = hashlib.sha256()
        return sha256[name]

    etf.write_frame_file(out / "frame.mat", m, etf._synthesize_columns(factors),
                         hasher("frame.mat"))
    if args.n <= _FULL_BUILD_MAX_N:
        with open(out / "gram.mat", "wb") as fh:
            cert = etf.verify_factors(factors, etf.gram_writer(
                fh, num_vectors, num_vectors, 1 << -factors.log2_scale_sq, hasher("gram.mat")).rows)
    else:
        cert = etf.verify_factors(factors)
    if args.float_export:
        buf = io.BytesIO()
        np.save(buf, etf.synthesize_frame(group, rep).to_complex())
        hasher("frame_float.npy").update(buf.getbuffer())
        (out / "frame_float.npy").write_bytes(buf.getbuffer())
    cert_dict = cert.to_json_dict()
    _write_json(out / "certificate.json", cert_dict, hasher("certificate.json"))
    manifest = {
        "command": "build",
        "parameters": {"n": args.n, "threads": args.threads},
        "n": args.n,
        "k": field.k,
        "modulus": field.modulus,
        "m": m,
        "numVectors": num_vectors,
        "welch_sq": _frac_str(welch_par),
        "ordering": "lex-xy",
        "d_order": "gamma-asc",
        "outputs": list(sha256),
        "sha256": {name: h.hexdigest() for name, h in sha256.items()},
        "certificate": cert_dict,
        "coverage": {"route": "factored", "entries": num_vectors ** 2,
                     "values": field.order ** 3},
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    _write_json(out / "manifest.json", manifest)
    print(json.dumps(cert_dict, indent=2, sort_keys=True))
    if cert.verdict != "OPTIMAL":
        raise VerificationFailure("certification failed; see certificate.json")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_from_file(args) -> int:
    mat = etf.read_matrix_file(args.infile)
    if isinstance(mat, scheme.GaussianRationalMatrix) and mat.shape[0] != mat.shape[1]:
        raise UsageError(f"a Gram matrix must be square, got {mat.shape[0]}x{mat.shape[1]}")
    try:
        cert = etf.verify_etf(mat)
    except OverflowError as exc:
        raise etf.MatrixParseError(f"{args.infile}: entries too large to certify: {exc}") from exc
    print(json.dumps(cert.to_json_dict(), indent=2, sort_keys=True))
    if cert.verdict != "OPTIMAL":
        where = cert.cross_checks.get("parsevalDefect") \
            or cert.cross_checks.get("projectionDefect")
        at = f" at entry ({where[0]}, {where[1]})" if where else ""
        raise VerificationFailure(f"{cert.failure}{at}")
    return 0


def _verify_from_n(args) -> int:
    mode, samples, seed = _run_plan(args)
    _, group, rep = _contexts(args.n)
    table = chartab.build_character_table(group, rep)
    if mode == "full":
        mismatches: dict = {}
        cert = etf.verify_factors(etf.frame_factors(group, rep), routes=(group, table, mismatches))
        agree = etf._routes_agree(mismatches)
        print(json.dumps({"threeWay": agree, "entries": group.order ** 2,
                          **cert.to_json_dict()}, indent=2, sort_keys=True))
        if cert.verdict != "OPTIMAL":
            raise VerificationFailure(cert.failure or "certification failed")
        if not agree:
            raise VerificationFailure(f"gram routes disagree: {mismatches}")
        return 0
    report = etf.three_way_sampled(group, table, rep, min_entries=samples, seed=seed)
    print(json.dumps({k: v for k, v in report.items() if k not in ("failure", "mismatches")},
                     indent=2, sort_keys=True))
    if not (report["agree"] and report["pattern_ok"]):
        raise VerificationFailure("sampled verification failed: "
                                  f"{report['failure'] or report['mismatches']}")
    return 0


def cmd_verify(args) -> int:
    if (args.infile is None) == (args.n is None):
        raise UsageError("give exactly one of --n or --in")
    if args.infile is not None:
        _refuse(args, "--n", "--mode")
        _refuse(args, "--mode sample", "--samples", "--seed")
        return _verify_from_file(args)
    return _verify_from_n(args)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def cmd_search(args) -> int:
    try:
        tuples = search.enumerate_tuples(args.max_order,
                                         nonabelian_orders_only=args.nonabelian_orders_only)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.suzuki_filters:
        _, group, rep = _contexts(3)
        table = chartab.build_character_table(group, rep)
        sizes = group.class_sizes()
        index = group.order // len(group.commutator_subgroup)
        for t in tuples:
            if t.n == 64:
                t.verdicts["classes"] = search.conjugacy_size_filter(t, sizes, index)
                t.verdicts["chars"] = search.character_sum_filter(t, table)
    csv_text = search.tuples_to_csv(tuples)
    summary = f"{len(tuples)} tuples with max order {args.max_order}"
    if args.out:
        Path(args.out).write_text(csv_text, encoding="ascii")
        print(summary)
    else:
        sys.stdout.write(csv_text)
        print(summary, file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# chartab / gram / srg
# ---------------------------------------------------------------------------

def cmd_chartab(args) -> int:
    _check_build_n(args.n)
    if args.n > 7:
        raise UsageError("character tables are emitted for n <= 7")
    table = chartab.build_character_table(*_contexts(args.n)[1:])
    payload = table.to_json_dict()
    payload["orthogonality"] = {"rows": "exact", "columns": "exact"}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0


def cmd_gram(args) -> int:
    _check_build_n(args.n)
    if args.n > _FULL_BUILD_MAX_N:
        raise UsageError(f"full Gram matrices are materialized for n <= {_FULL_BUILD_MAX_N}; "
                         "`verify --n` certifies all N^2 entries without one at every n <= 9")
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    known = {"closed-form", "character", "frame"}
    bad = set(methods) - known
    if bad or not methods:
        raise UsageError(f"unknown gram methods {sorted(bad)}; choose from {sorted(known)}")
    if args.out:
        open(args.out, "a").close()  # a missing directory or a directory path fails before the work
    _, group, rep = _contexts(args.n)
    routes = {"character": lambda: etf.gram_character(
                  group, chartab.build_character_table(group, rep),
                  group.inverse_product_index_matrix),
              "closed-form": lambda: etf.gram_closed_form(
                  group, group.inverse_product_index_matrix),
              "frame": lambda: etf.gram_from_frame(etf.synthesize_frame(group, rep))}
    # the frame route runs first, before a table route caches the index grid on the group
    built = {meth: routes[meth]() for meth in sorted(set(methods), key=lambda m: m != "frame")}
    mats = {meth: built[meth] for meth in sorted(built)}
    for pair, bad_at in etf._route_mismatches(mats).items():
        if bad_at is not None:
            print(f"DISAGREE ({pair.replace('_vs_', ' vs ')}) at entry {bad_at}")
            raise VerificationFailure("gram routes disagree")
    entries = group.order ** 2
    print(f"AGREE ({entries} entries)" if len(mats) > 1
          else f"OK ({entries} entries)")
    if args.out:
        etf.write_gram_file(args.out, next(iter(mats.values())))
    return 0


def cmd_srg(args) -> int:
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
    try:
        desc, report = scheme.srg_scheme(args.v, args.k, args.lam, args.mu)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    gram = scheme.gram_projector(desc, report.d_subset)
    cert = etf.verify_gram(gram, method="srgIdempotent")
    payload = {
        "scheme": desc.summary_json(),
        "dSubset": list(report.d_subset),
        "isHyperdifferenceSet": report.is_hyperdifference,
        "b": [f"{x.numerator}/{x.denominator}" for x in report.b],
        "certificate": cert.to_json_dict(),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        etf.write_gram_file(outdir / "srg_gram.mat", gram)
        _write_json(outdir / "srg_certificate.json", payload)
    if cert.verdict != "OPTIMAL":
        raise VerificationFailure(cert.failure or "SRG idempotent is not an ETF Gram")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="linepack",
        description="exact Welch-bound-equality line packings from Suzuki 2-groups")
    p.add_argument("--json-errors", action="store_true",
                   help="emit runtime errors as JSON on stderr")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--threads", type=int, default=1,
                        help="cap on OpenBLAS threads (results are identical)")

    b = sub.add_parser("build", help="synthesize, certify, and export a frame")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--out", help="output directory (default $LINEPACK_OUT or ./linepack_n<N>)")
    b.add_argument("--float-export", action="store_true")
    common(b)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="certify a frame or Gram matrix")
    v.add_argument("--n", type=int)
    v.add_argument("--in", dest="infile",
                   help="matrix file to certify in full; takes no --mode, --samples or --seed")
    v.add_argument("--mode", choices=["full", "sample"],
                   help="with --n only (default full): full certifies all N^2 entries from q^3 "
                        "values; sample compares a random block of at least --samples entries")
    v.add_argument("--samples", type=int, help=f"sample mode only (default {DEFAULT_SAMPLES})")
    v.add_argument("--seed", type=int, help=f"sample mode only (default {DEFAULT_SEED})")
    common(v)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("search", help="enumerate candidate parameter tuples")
    s.add_argument("--max-order", type=int, required=True)
    s.add_argument("--nonabelian-orders-only", action="store_true")
    s.add_argument("--suzuki-filters", action="store_true",
                   help="fill class/character verdicts for order-64 rows")
    s.add_argument("--out")
    s.set_defaults(func=cmd_search)

    c = sub.add_parser("chartab", help="emit the exact character table as JSON")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--out")
    c.set_defaults(func=cmd_chartab)

    g = sub.add_parser("gram", help="compute the Gram matrix and cross-compare routes")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--method", default="closed-form",
                   help="comma list from closed-form,character,frame")
    g.add_argument("--out")
    common(g)
    g.set_defaults(func=cmd_gram)

    r = sub.add_parser("srg", help="strongly-regular-graph scheme and its ETF")
    r.add_argument("--v", type=int, required=True)
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--lambda", dest="lam", type=int, required=True)
    r.add_argument("--mu", type=int, required=True)
    r.add_argument("--out")
    r.set_defaults(func=cmd_srg)

    return p


def _emit_error(kind: str, message: str, as_json: bool, **extra) -> None:
    if as_json:
        print(json.dumps({"error": {"type": kind, "message": message, **extra}},
                         sort_keys=True), file=sys.stderr)
    else:
        for text in extra.values():
            print(text, end="", file=sys.stderr)
        print(f"linepack: {kind}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        threads = getattr(args, "threads", 1)
        if threads < 1:
            raise UsageError("--threads must be at least 1")
        with exact.blas_threads(threads):
            return args.func(args)
    except UsageError as exc:
        _emit_error("usage", str(exc), args.json_errors)
        return 2
    except etf.MatrixParseError as exc:
        _emit_error("parse", str(exc), args.json_errors)
        return 2
    except OSError as exc:
        # a path that cannot be read or written, such as --out naming a file or a missing directory
        where = f"{exc.filename}: " if exc.filename else ""
        _emit_error("usage", f"{where}{exc.strerror or exc}", args.json_errors)
        return 2
    except VerificationFailure as exc:
        _emit_error("violation", str(exc), args.json_errors)
        return 1
    except Exception as exc:
        # last resort: exit 1 claims a mathematical violation, so a crash must not use it
        _emit_error("internal", f"{type(exc).__name__}: {exc}", args.json_errors,
                    traceback=traceback.format_exc())
        return 3


if __name__ == "__main__":
    sys.exit(main())
