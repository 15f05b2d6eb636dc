"""motionscope benchmark: one closed-loop workload per process.

    python3 bench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload train --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --compare BASE.jsonl HEAD.jsonl

Run from the repository root.  `--trace 0` prints the end-to-end metrics and
`--trace 1` the per-layer ones (see bench/README.md).  The full record, with
provenance and output hashes, is printed before the last line and appended
to `--out` when given; compare mode reads these records.  The last line is
the result: correctness, ops attempted and failed, and the metrics with
their units.  The exit code is 1 when a correctness check fails.
"""

import os

# One BLAS thread, set before numpy is first imported.  On a 2-core machine
# one thread was as fast as two (about 35 ms per training step against
# 33-38 ms) and its timings spread less.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_REPS = 7  # set-ups per run; setup_s is their median
TRACE_BLOCKS = 10  # traced blocks per traced run, each followed by an untraced one
# An untraced run is timed as consecutive windows, and each end-to-end timing
# is the median over them: load from outside the process comes in bursts of
# seconds, and a burst that covers one window then does not move the result.
WINDOWS = 3


def git_sha(root: Path) -> str | None:
    """Commit of a git checkout, read from `.git` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed: int) -> dict:
    import numpy as np
    from workloads import bench_config_hash, sha256_text

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "seed": seed,
        "train_config_sha256": sha256_text(workload.train_config.canonical_key()),
        "bench_config_sha256": bench_config_hash(workload),
    }


class Loop:
    """Runs ops one after another and counts the ones that fail."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0

    def step(self) -> None:
        self.attempted += 1
        try:
            result = self.ops()
        except Exception:  # a failing op is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        if not self.ops.valid(result):
            print(f"op {self.attempted}: invalid result {result!r}", file=sys.stderr)
            self.failed += 1

    def timed(self, seconds: float, recorder=None, checkpoint=lambda: 0.0):
        """Closed loop for `seconds` of wall time; returns each op's duration
        and the wall time, both excluding time spent in `checkpoint`."""
        durations: list[float] = []
        start = time.perf_counter()
        paused = 0.0
        while time.perf_counter() - start - paused < seconds:
            if recorder is not None:
                span = recorder.open_op(self.attempted)
            t0 = time.perf_counter()
            self.step()
            durations.append(time.perf_counter() - t0)
            if recorder is not None:
                recorder.close(span)
            paused += checkpoint()
        return durations, time.perf_counter() - start - paused


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    from workloads import CHECK_STEPS, WARMUP_OPS, EvalOps, TrainOps, params_hash, setup

    tracer = spans.Tracer() if trace else None
    setup_rec, ops_rec = spans.Recorder(), spans.Recorder()
    work_root = ROOT / ".bench_run"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    checks: dict = {}
    try:
        with tracer or nullcontext():
            if tracer:
                tracer.recorder = setup_rec
            setup_times, intact = [], True
            for rep in range(SETUP_REPS):
                trainer, elapsed, ok = setup(workload, seed, work_dir / f"setup{rep}")
                shutil.rmtree(work_dir / f"setup{rep}")
                setup_times.append(elapsed)
                intact = intact and ok
            if tracer:
                tracer.recorder = None
            checks["scene_io_roundtrip"] = intact
            initial_params = None if workload.train else params_hash(trainer)
            ops = TrainOps(trainer) if workload.train else EvalOps(trainer)
            loop = Loop(ops)

            def checkpoint() -> float:
                if workload.train and ops.done == CHECK_STEPS:
                    t0 = time.perf_counter()
                    checks["params_sha256"] = params_hash(trainer)
                    return time.perf_counter() - t0
                return 0.0

            for _ in range(WARMUP_OPS):
                loop.step()
                checkpoint()
            if trace:
                # untraced and traced blocks alternate, so drift in machine
                # speed does not land on one side of the overhead ratio
                plain, plain_wall, durations, wall = [], 0.0, [], 0.0
                for block in range(2 * TRACE_BLOCKS):
                    recorder = ops_rec if block % 2 else None
                    tracer.recorder = recorder
                    got, took = loop.timed(seconds / (2 * TRACE_BLOCKS), recorder, checkpoint)
                    if recorder is None:
                        plain, plain_wall = plain + got, plain_wall + took
                    else:
                        durations, wall = durations + got, wall + took
                tracer.recorder = None
            else:
                windows = [loop.timed(seconds / WINDOWS, checkpoint=checkpoint)
                           for _ in range(WINDOWS)]
                durations = [d for got, _ in windows for d in got]
            # finish the fixed-size checks a short run may not have reached
            if workload.train:
                while ops.done < CHECK_STEPS:
                    loop.step()
                    checkpoint()
            else:
                while not ops.pass_complete:
                    loop.step()
                checks["eval_sha256"] = ops.results_hash()
                checks["eval_repeats_match"] = ops.repeats_match
                checks["eval_left_params_unchanged"] = params_hash(trainer) == initial_params
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it

    if trace:
        metrics = spans.layer_metrics(ops_rec, setup_rec, SETUP_REPS)
        metrics["trace.overhead_share"] = (len(durations) / wall) / (len(plain) / plain_wall)
    else:
        metrics = {
            "ops_per_s": statistics.median(len(got) / took for got, took in windows),
            "op_ms_p50": 1000.0 * statistics.median(
                statistics.median(got) for got, _ in windows),
            "op_ms_p90": 1000.0 * statistics.median(
                statistics.quantiles(got, n=10)[-1] for got, _ in windows),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    correct = loop.failed == 0 and all(v for v in checks.values() if isinstance(v, bool))
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "op_samples": len(durations),
        "setup_samples_s": setup_times,
        "checks": checks,
        "metrics": metrics,
        "provenance": provenance(workload, seed),
    }


def result_line(record: dict, spec: dict) -> dict:
    """The last output line: exactly the metrics BENCHMARK.json lists for
    this mode, each with its unit."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full record to this JSONL file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "HEAD"),
                        help="compare two files of records instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare_files

        print(compare_files(*args.compare, spec))
        return 0
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = ROOT / "src"
    sys.path.insert(1, str(src))
    try:
        import motionscope
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(motionscope.__file__).resolve().parent.parent != src:
        print(f"motionscope was imported from {motionscope.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    line = result_line(record, spec)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(line))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
