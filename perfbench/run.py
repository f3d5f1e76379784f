#!/usr/bin/env python3
"""Builds and runs the DiverseAV campaign benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) into .bench_build, or into
$CARGO_TARGET_DIR when that is set; later calls only check that the build is
up to date. Build output goes to stderr; the last line of standard output is
the benchmark's JSON result. Exits non-zero, without a result, when the build
or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "davbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "davbench")


def run(binary, args, work_dir):
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.Popen([binary] + args + ["--work-dir", work_dir],
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("run.py: davbench timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work", str(os.getpid()))
    if a.self_test:
        return run(binary, ["--self-test"], work_dir)
    return run(binary, ["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", a.trace],
               work_dir)


if __name__ == "__main__":
    sys.exit(main())
