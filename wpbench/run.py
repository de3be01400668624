#!/usr/bin/env python3
"""Build the wirepipe benchmark from source and run one workload.

    python3 wpbench/run.py --workload anneal-area-1024 --seed 7 \\
        --seconds 20 --trace 0

Run from the root of a wirepipe checkout. The first call configures and
builds wpbench/ (the library sources, the evaluation daemon and the
benchmark driver) into $CARGO_TARGET_DIR/wpbench, default
.bench_build/wpbench; later calls rebuild only what changed. Build output
goes to standard error, so the last line of standard output is the
driver's JSON result. The exit code is the driver's: 0 only when every
output check passed.

Extra flag: --smoke runs tiny inputs (the benchmark's own tests use it).
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "wpbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"wpbench/run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "wpbench"


def configure(build):
    command = ["cmake", "-S", str(BENCH_DIR), "-B", str(build),
               "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build / "CMakeCache.txt").exists():
        command += ["-G", "Ninja"]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode


def build(build):
    if configure(build) != 0:
        # A cache from another checkout path: start the build tree afresh.
        log("configure failed; retrying in a fresh build directory")
        shutil.rmtree(build, ignore_errors=True)
        if configure(build) != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    result = subprocess.run(["cmake", "--build", str(build), "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    return result.returncode == 0


def stop_group(process):
    """Kills what is left of the driver's process group and waits for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "eval" / "evaluate.hpp").is_file():
        log(f"no wirepipe sources under {ROOT}; run from a full checkout")
        return 2
    build_path = build_dir()
    if not build(build_path):
        log("build failed")
        return 1

    out_dir = build_path / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        out_arg = os.path.relpath(out_dir, ROOT)
    except ValueError:
        out_arg = str(out_dir)
    command = [str(build_path / "wpbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--out", out_arg,
               "--evald", str(build_path / "wirepipe_evald")]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    # Own process group: whatever the driver spawns is stopped with it.
    process = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} ran past {RUN_TIMEOUT_S} s; stopped")
        return 1
    finally:
        stop_group(process)


if __name__ == "__main__":
    sys.exit(main())
