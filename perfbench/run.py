"""linepack benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single process runs the ``linepack`` command of one workload in a closed
loop with one client: the next command starts only after the previous one
has exited, and a next round starts while it is expected to end within S
seconds (at least one always runs).  The program is run from ``src/`` of the
checkout; it needs no build.  Every command's outputs are checked exactly; a
command that exits non-zero, misses the ``OPTIMAL`` verdict or writes content
whose sha256 differs from the reference counts as failed and is never dropped.

``--trace 0`` reports the end-to-end metrics, medians over the run's
commands: wall time, CPU time and peak RSS of each command process (from
``os.wait4`` on that process), and ``setup_s``, the median launch-to-exit
time of fresh processes that import linepack and build the field, group,
representation and character table at the workload's n.  A batch of such
processes (at least one, and more until the batch took a second) runs
before each command and after the last one, so set-up is sampled across
the run's time window; at least three run in all.

``--trace 1`` runs pairs of commands, one untraced and one under
``perfbench/traced.py``, and reports per-layer self times and counts from the
traced spans, plus the tracing overhead (traced minus untraced wall time).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of each run, with the machine
facts, is written under ``.perfbench_runs/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
THREADS = 1
SETUP_MIN_REPEATS = 3
SETUP_BATCH_SECONDS = 1.0
SETUP_BATCH_MAX = 10
CHILD_TIMEOUT_S = 150
CHILD_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "OPENBLAS_NUM_THREADS": str(THREADS),
    "OMP_NUM_THREADS": str(THREADS),
    "PYTHONHASHSEED": "0",
}
SETUP_CODE = (
    "import sys, linepack as lp\n"
    "n = int(sys.argv[1])\n"
    "if n:\n"
    "    group = lp.GroupContext(lp.FieldContext(n))\n"
    "    lp.build_character_table(group, lp.RepContext(group))\n"
)

# sha256 of the content files written by the seed code; they must never change.
REFERENCE = {
    "frame.mat": "975b80bb6ae7387987a2264cf40834fbbf30d851af34645a1f610e6cf31ef84a",
    "gram.mat": "f9663feaa7f8650b87261210fb1567ef44a0457c6933629d800a90dbd60dca6c",
    "certificate.json": "805750fcc79ae86bdbf97a18caa5b2ff3dcc4c1d41212a1e0fe2ff1504cea36a",
    "verify-in.stdout": "912e7c9e4b6cdb2293405fbff58c9091057bbc3641fb1166137cc5fb814c432c",
}
SAMPLE_ENTRIES = 317 * 317  # all pairs of ceil(sqrt(100000)) sampled columns
GRAM_INPUT = RUNS / "inputs" / "gram_n5.mat"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
COMMAND_METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
# Counts derived from array shapes and file sizes, not from hardware counters.
COMPUTED = ["etf.gram_frame_macs", "etf.parseval_macs", "scheme.matmul_macs",
            "etf.entries_compared", "etf.write_bytes", "etf.read_bytes"]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return {}


def check_digests(digests: dict, problems: list[str]) -> None:
    for name, digest in digests.items():
        if digest != REFERENCE[name]:
            problems.append(f"{name} sha256 {digest} differs from the reference")


# ---------------------------------------------------------------------------
# workload commands and output checks
# A check returns (content digests, Gram entries certified, problems).
# ---------------------------------------------------------------------------

def build_args(out: Path, seed: int) -> list[str]:
    return ["build", "--n", "5", "--out", str(out), "--threads", str(THREADS)]


def build_check(out: Path, stdout: Path, seed: int):
    problems: list[str] = []
    names = ("frame.mat", "gram.mat", "certificate.json")
    missing = [name for name in names if not (out / name).is_file()]
    if missing:
        return {}, 0, [f"missing outputs {missing}"]
    digests = {name: sha256_file(out / name) for name in names}
    check_digests(digests, problems)
    cert = load_json(out / "certificate.json", problems)
    if cert.get("verdict") != "OPTIMAL":
        problems.append(f"verdict {cert.get('verdict')!r}")
    return digests, cert.get("numVectors", 0) ** 2, problems


def sample_args(out: Path, seed: int) -> list[str]:
    return ["verify", "--n", "7", "--mode", "sample", "--samples", "100000",
            "--seed", str(seed), "--threads", str(THREADS)]


def sample_check(out: Path, stdout: Path, seed: int):
    problems: list[str] = []
    report = load_json(stdout, problems)
    for key in ("agree", "pattern_ok"):
        if report.get(key) is not True:
            problems.append(f"{key} is {report.get(key)!r}")
    if report.get("entries") != SAMPLE_ENTRIES:
        problems.append(f"entries {report.get('entries')!r} != {SAMPLE_ENTRIES}")
    if report.get("seed") != seed:
        problems.append(f"seed {report.get('seed')!r} != {seed}")
    return {"stdout": sha256_file(stdout)}, 0 if problems else SAMPLE_ENTRIES, problems


def file_args(out: Path, seed: int) -> list[str]:
    return ["verify", "--in", str(GRAM_INPUT), "--threads", str(THREADS)]


def file_check(out: Path, stdout: Path, seed: int):
    problems: list[str] = []
    if not GRAM_INPUT.is_file() or sha256_file(GRAM_INPUT) != REFERENCE["gram.mat"]:
        problems.append("input gram.mat differs from the reference")
    digests = {"verify-in.stdout": sha256_file(stdout)}
    check_digests(digests, problems)
    cert = load_json(stdout, problems)
    if cert.get("verdict") != "OPTIMAL":
        problems.append(f"verdict {cert.get('verdict')!r}")
    return digests, cert.get("numVectors", 0) ** 2, problems


def prepare_gram_input() -> None:
    """Make the n = 5 Gram file with ``build`` once per checkout; check its hash."""
    if GRAM_INPUT.is_file() and sha256_file(GRAM_INPUT) == REFERENCE["gram.mat"]:
        return
    scratch = RUNS / "inputs" / f"build-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    launch(linepack_argv(build_args(scratch / "out", 0)), scratch)
    built = scratch / "out" / "gram.mat"
    if built.is_file():
        os.replace(built, GRAM_INPUT)
    shutil.rmtree(scratch, ignore_errors=True)


# name -> (setup degree, 0 = import only; Gram order N; arguments; check).
# BENCHMARK.json says why each is here.  Set-up at n = 9 takes minutes, and a
# chartab-only workload (3 s commands) drifted by half between runs on a
# shared 2-vCPU host, so neither is a workload.
WORKLOADS = {
    "build-n5": (5, 1024, build_args, build_check),
    "verify-sample-n7": (7, 16384, sample_args, sample_check),
    "verify-gram-file-n5": (0, 1024, file_args, file_check),
}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def linepack_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "linepack.cli", *args]


def launch(argv: list[str], logs: Path) -> dict:
    """Run one child to completion; wall from launch to exit, rusage of that pid."""
    env = dict(os.environ, **CHILD_ENV)
    with open(logs / "stdout", "wb") as out, open(logs / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024, "exit_code": proc.returncode}


def run_command(name: str, seed: int, index: int, traced: bool, keep: Path) -> dict:
    _, _, args_fn, check_fn = WORKLOADS[name]
    work = RUNS / "work" / f"{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    out.mkdir(parents=True)
    args = args_fn(out, seed)
    spans_path = work / "spans.json"
    argv = ([sys.executable, str(HERE / "traced.py"), str(spans_path), "--", *args]
            if traced else linepack_argv(args))
    sample = launch(argv, work)
    digests, entries, problems = check_fn(out, work / "stdout", seed)
    if sample["exit_code"] != 0:
        problems.insert(0, f"exit code {sample['exit_code']}: "
                           + (work / "stderr").read_text(errors="replace")[-400:])
    sample.update(args=args, traced=traced, digests=digests, entries=entries,
                  problems=problems)
    if traced and spans_path.is_file():
        record = json.loads(spans_path.read_text(encoding="ascii"))
        sample["layers"] = layer_metrics(layer_totals(record["spans"]), record["import_s"])
        os.replace(spans_path, keep.with_name(f"{keep.stem}-spans{index}.json"))
    shutil.rmtree(work, ignore_errors=True)
    return sample


def layer_metrics(totals: dict, import_s: float) -> dict:
    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def work(name):
        return totals.get(name, {}).get("work", 0)

    gram_s, gram_macs = self_s("etf.gram_frame"), work("etf.gram_frame")
    return {
        "etf.gram_frame_s": gram_s,
        "etf.gram_frame_macs": gram_macs,
        "etf.gram_frame_macs_per_s": gram_macs / gram_s if gram_s else 0.0,
        "etf.parseval_s": self_s("etf.parseval"),
        "etf.parseval_macs": work("etf.parseval"),
        "etf.synth_s": self_s("etf.synth"),
        "etf.gram_character_s": self_s("etf.gram_character"),
        "etf.gram_closed_form_s": self_s("etf.gram_closed_form"),
        "etf.compare_s": self_s("etf.compare"),
        "etf.entries_compared": work("etf.compare"),
        "etf.certify_s": self_s("etf.certify"),
        "etf.write_s": self_s("etf.write"),
        "etf.write_bytes": work("etf.write"),
        "etf.read_s": self_s("etf.read"),
        "etf.read_bytes": work("etf.read"),
        "scheme.matmul_s": self_s("scheme.matmul"),
        "scheme.matmul_macs": work("scheme.matmul"),
        "scheme.canonical_s": self_s("scheme.canonical"),
        "chartab.build_s": self_s("chartab.build"),
        "chartab.verify_s": self_s("chartab.verify"),
        "heis.rep_init_s": self_s("heis.rep_init"),
        "heis.rep_twisted_calls": calls("heis.rep_twisted"),
        "heis.rep_twisted_s": self_s("heis.rep_twisted"),
        "gf2n.field_s": self_s("gf2n.field"),
        "gf2n.tables_s": self_s("gf2n.tables"),
        "gf2n.inv_calls": calls("gf2n.inv"),
        "gf2n.inv_s": self_s("gf2n.inv"),
        "bgroup.classes_s": self_s("bgroup.classes"),
        "bgroup.index_grid_s": self_s("bgroup.index_grid"),
        "cli.import_s": import_s,
        "cli.self_s": self_s("cli"),
    }


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy

    def proc_field(path, key):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "ram": proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {"--threads": THREADS, **{k: v for k, v in CHILD_ENV.items()
                                              if k.endswith("THREADS")}},
    }


def median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "linepack" / "cli.py").is_file():
        print(f"perfbench: no linepack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    name, seed = opts.workload, opts.seed
    setup_n, gram_order, _, _ = WORKLOADS[name]
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    record_path = results / f"{name}-seed{seed}-trace{opts.trace}-{stamp}.json"
    if name == "verify-gram-file-n5":
        prepare_gram_input()

    logs = RUNS / "work" / f"{os.getpid()}-setup"
    logs.mkdir(parents=True, exist_ok=True)
    probe = [sys.executable, "-c", SETUP_CODE, str(setup_n)]
    setup: list[dict] = []

    def probe_batch():
        spent = 0.0
        for _ in range(SETUP_BATCH_MAX):
            setup.append(launch(probe, logs))
            spent += setup[-1]["wall_s"]
            if spent >= SETUP_BATCH_SECONDS:
                break

    samples: list[dict] = []
    started, rounds = time.perf_counter(), 0
    while True:
        if opts.trace:
            plain = run_command(name, seed, len(samples), False, record_path)
            traced = run_command(name, seed, len(samples) + 1, True, record_path)
            if traced["digests"] != plain["digests"]:
                traced["problems"].append("traced content differs from untraced")
            if "layers" not in traced:
                traced["problems"].append("traced run wrote no spans")
            samples += [plain, traced]
        else:
            probe_batch()
            samples.append(run_command(name, seed, len(samples), False, record_path))
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / rounds > opts.seconds:
            break
    if not opts.trace:
        probe_batch()
        while len(setup) < SETUP_MIN_REPEATS:
            setup.append(launch(probe, logs))
    shutil.rmtree(logs, ignore_errors=True)

    failed = sum(1 for s in samples if s["problems"])
    setup_ok = all(s["exit_code"] == 0 for s in setup)
    plain = [s for s in samples if not s["traced"]]
    if opts.trace:
        traced = [s for s in samples if "layers" in s]
        metrics = {key: statistics.median(s["layers"][key] for s in traced) if traced else 0.0
                   for key in PER_LAYER if key != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (median(traced, "wall_s") - median(plain, "wall_s")
                                       if traced else 0.0)
        units = PER_LAYER
    else:
        metrics = {key: median(plain, key) for key in COMMAND_METRICS}
        metrics["setup_s"] = median(setup, "wall_s")
        units = END_TO_END
    entries = statistics.median(s["entries"] for s in plain)
    extra = {
        "entries_per_s": entries / median(plain, "wall_s"),
        "coverage": entries / gram_order ** 2,
        "fail_ratio": failed / len(samples),
        "entries_certified": entries,
    }
    record = {
        "workload": name, "seed": seed, "seconds": opts.seconds, "trace": opts.trace,
        "loop": "closed, one client", "environment": environment(),
        "setup_samples": setup, "commands": samples, "metrics": metrics,
        "extra": extra, "computed_counts": COMPUTED if opts.trace else [],
    }
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {name}  seed {seed}  trace {opts.trace}  "
          f"{len(samples)} command(s), {failed} failed; medians")
    for key, value in metrics.items():
        print(f"  {key:28s} {value:>16.6g} {units[key]}")
    if not opts.trace:
        for key, unit in (("entries_per_s", "1/s"), ("coverage", "ratio"),
                          ("fail_ratio", "ratio")):
            print(f"  {key:28s} {extra[key]:>16.6g} {unit}")
    for s in samples:
        for problem in s["problems"]:
            print(f"  FAILED {' '.join(s['args'])}: {problem}")
    print(f"  record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and setup_ok,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
