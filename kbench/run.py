"""kdilate benchmark: one `kdilate` process per call, in a closed loop.

    python3 kbench/run.py --workload dilation --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is taken from ./src.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones, measured on separate processes started one at a time;
with --trace 1 they are the per-layer ones, from one in-process pass over
the same round with spans around each layer (see spans.py).  README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
# The checks read transform entries of any size; in-process kdilate calls run
# under the interpreter's default limit, as a kdilate process does.
DEFAULT_DIGITS = sys.get_int_max_str_digits()
sys.set_int_max_str_digits(0)

import inputs  # noqa: E402

MIN_CALLS = 40          # p75 then always has at least ten calls beyond it
SETUPS = 5              # setup_s is the median of this many set-ups
WARMUPS = 2             # no-work kdilate processes per set-up
IMPORT_SAMPLES = 7
CALL_TIMEOUT_S = 120
NO_WORK = ["cuntz", "inf", "2"]
LAUNCH = BENCH / "launch.py"     # runs kdilate, then reports its VmHWM
PEAK_LINE = re.compile(rb"^kbench-vmhwm-kb (\d+)$", re.MULTILINE)

PER_LAYER = [  # (metric, unit)
    ("abelian.smith_normal_form.calls", "count"),
    ("abelian.smith_normal_form.self_s", "s"),
    ("abelian.smith_normal_form.max_bits", "bits"),
    ("abelian.unimodular_inverse.calls", "count"),
    ("abelian.lattice_contains.calls", "count"),
    ("abelian.integer_kernel_basis.calls", "count"),
    ("abelian.solve_integer_system.calls", "count"),
    ("abelian.kernel.self_s", "s"),
    ("abelian.cokernel.self_s", "s"),
    ("colimit.classify_colimit.calls", "count"),
    ("colimit.classify_colimit.self_s", "s"),
    ("colimit.ker_coker_one_minus.self_s", "s"),
    ("colimit.localized_diagonal.calls", "count"),
    ("colimit.localized_diagonal.self_s", "s"),
    ("colimit.localized_diagonal.distinct_ratio", "ratio"),
    ("colimit.localized_diagonal.eigen_hit_ratio", "ratio"),
    ("kcrossed.pv_crossed_product.calls", "count"),
    ("kcrossed.pv_crossed_product.self_s", "s"),
    ("graphalg.enumerate_hereditary_saturated.self_s", "s"),
    ("graphalg.ideal_lattice_hasse.self_s", "s"),
    ("graphalg.PosetDiagram.self_s", "s"),
    ("graphalg.prim_poset.self_s", "s"),
    ("graphalg.subquotient_k.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.render_json.self_s", "s"),
    ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
]


class Checker:
    """Keeps each op's first output, which `finish()` checks against the op's
    reference after the timed phase; every later output of the same op must
    repeat it byte for byte."""

    def __init__(self):
        self.seen: dict[str, tuple[int, str]] = {}
        self.first: list[tuple] = []     # (op, exit code, output)
        self.errors: list[str] = []

    def add(self, op, code: int, out: bytes):
        digest = hashlib.sha256(out).hexdigest()
        if op.key in self.seen:
            if self.seen[op.key] != (code, digest):
                self.errors.append(f"{op.key}: output differs between rounds")
            return
        self.seen[op.key] = (code, digest)
        self.first.append((op, code, out))

    def finish(self):
        for op, code, out in self.first:
            try:
                payload = json.loads(out)
            except ValueError:
                self.errors.append(f"{op.key}: output is not JSON")
                continue
            error = op.verify(op.ref, code, payload)
            if error:
                self.errors.append(f"{op.key}: {error}")
        self.first.clear()


def _env(root: Path) -> dict:
    """The program from ./src, with its bytecode cached as an installed
    package's would be: the set-up's no-work calls write the cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _kdilate(root: Path, argv: list[str]) -> tuple[float, int, bytes, bytes, int]:
    """(wall seconds, exit code, stdout, stderr, peak resident kB) of one
    kdilate process; the launcher's VmHWM line is taken out of stderr."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(LAUNCH), *argv], cwd=root,
                            env=_env(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    wall = time.perf_counter() - start
    peaks = [int(kb) for kb in PEAK_LINE.findall(err)]
    return wall, proc.returncode, out, PEAK_LINE.sub(b"", err), max(peaks, default=0)


def _argv(op, work: Path) -> list[str]:
    return [op.argv[0], "--input", str(work / f"{op.stem}.json"), "--format", "json",
            *op.argv[1:]]


def _write_inputs(ops, work: Path):
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    for op in ops:
        path = work / f"{op.stem}.json"
        if not path.exists():
            path.write_text(json.dumps(op.doc), encoding="utf-8")


def _failed(code) -> bool:
    return code not in (0, 3)


def end_to_end(root: Path, ops, seconds: float, scratch: Path) -> dict:
    setups, no_work = [], []
    for i in range(SETUPS):
        start = time.perf_counter()
        work = scratch / f"setup{i}"
        _write_inputs(ops, work)
        for _ in range(WARMUPS):
            no_work.append(_kdilate(root, NO_WORK)[0])
        setups.append(time.perf_counter() - start)

    checker, times, peaks_kb, attempted, failed = Checker(), [], [], 0, 0
    first_error = None
    begin = time.perf_counter()
    while True:
        for op in ops:
            wall, code, out, err, peak = _kdilate(root, _argv(op, work))
            times.append(wall)
            peaks_kb.append(peak)
            attempted += 1
            if _failed(code):
                failed += 1
                first_error = first_error or f"{op.key}: exit {code}: " + (
                    err.decode(errors="replace").strip().splitlines() or [""])[-1]
            else:
                checker.add(op, code, out)
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds and attempted >= MIN_CALLS:
            break
    checker.finish()

    idle = statistics.median(no_work)
    share = (elapsed - attempted * idle) / elapsed
    print(f"# {attempted} calls in {elapsed:.2f} s; no-work call {idle:.4f} s; "
          f"work share {share:.3f}; failed {failed}; "
          f"largest process peak {max(peaks_kb) / 1024:.1f} MB")
    if first_error:
        print(f"# first failure: {first_error}")
    for error in checker.errors[:10]:
        print(f"# CHECK FAILED {error}")
    return {
        "correct": not checker.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "calls_per_s": {"value": attempted / elapsed, "unit": "1/s"},
            "call_p50_s": {"value": statistics.median(times), "unit": "s"},
            "call_tail_s": {"value": statistics.quantiles(times, n=4)[2], "unit": "s"},
            # The median, not the largest: the largest is set by whichever
            # rare input grows its Smith-form entries most, so it moves with
            # the seed (16 MB or 22-24 MB on presentations).
            "peak_rss_mb": {"value": statistics.median(peaks_kb) / 1024, "unit": "MB"},
        },
    }


def _import_seconds(root: Path) -> float:
    """Median time to import kdilate.cli in a fresh interpreter, minus the
    median time of a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, bucket in (("pass", bare), ("import kdilate.cli", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=_env(root), check=True)
            bucket.append(time.perf_counter() - start)
    return statistics.median(full) - statistics.median(bare)


def _in_process_pass(cli, ops, work: Path, checker: Checker | None, tracer=None):
    """Run one round in this interpreter; returns (seconds, failures)."""
    failures = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.request = index
        buf = io.StringIO()
        sys.set_int_max_str_digits(DEFAULT_DIGITS)
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(_argv(op, work))
        except Exception as exc:  # a crash of the program under test is a failed op
            failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            continue
        finally:
            sys.set_int_max_str_digits(0)
        if _failed(code):
            failures.append(f"{op.key}: exit {code}")
        elif checker is not None:
            checker.add(op, code, buf.getvalue().encode())
    return time.perf_counter() - start, failures


def per_layer(root: Path, ops, scratch: Path, trace_path: Path) -> dict:
    import_s = _import_seconds(root)
    sys.path.insert(0, str(root / "src"))
    import kdilate.cli as cli  # noqa: E402
    import spans  # noqa: E402

    work = scratch / "inproc"
    _write_inputs(ops, work)
    # Untraced passes before and after the traced one, so that a drift in
    # machine speed during the run does not land in the overhead.
    before_s, _ = _in_process_pass(cli, ops, work, None)
    tracer, checker = spans.Tracer(), Checker()
    tracer.install()
    try:
        traced_s, failures = _in_process_pass(cli, ops, work, checker, tracer)
    finally:
        tracer.uninstall()
    after_s, _ = _in_process_pass(cli, ops, work, None)
    plain_s = (before_s + after_s) / 2
    tracer.write(trace_path)
    checker.finish()

    values = {"cli.import_s": import_s, "trace.overhead_s": traced_s - plain_s,
              "abelian.smith_normal_form.max_bits": tracer.snf_max_bits}
    diag_calls = tracer.calls("colimit.localized_diagonal")
    values["colimit.localized_diagonal.distinct_ratio"] = (
        len(tracer.towers) / diag_calls if diag_calls else 0.0)
    values["colimit.localized_diagonal.eigen_hit_ratio"] = (
        tracer.eigen_hits / tracer.eigen_calls if tracer.eigen_calls else 0.0)
    for name, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name not in values:
            values[name] = tracer.calls(base) if kind == "calls" else tracer.self_s(base)
    print(f"# in-process round {before_s:.3f} and {after_s:.3f} s untraced, "
          f"{traced_s:.3f} s traced; "
          f"{len(tracer.spans)} spans written to {os.path.relpath(trace_path, root)}")
    if failures:
        print(f"# first failure: {failures[0]}")
    for error in checker.errors[:10]:
        print(f"# CHECK FAILED {error}")
    return {
        "correct": not checker.errors,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kdilate" / "cli.py").is_file():
        print(f"error: {root} has no src/kdilate/cli.py; run from the root of a "
              "kdilate checkout", file=sys.stderr)
        return 2

    ops = inputs.make_ops(args.workload, args.seed)
    for op in ops:  # references first: outside every timed phase
        op.ref = op.reference()
    out_dir = BENCH / "out"
    scratch = out_dir / f"work-{os.getpid()}"
    try:
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
            result = per_layer(root, ops, scratch, trace_path)
        else:
            result = end_to_end(root, ops, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
