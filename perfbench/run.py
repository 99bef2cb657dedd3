#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench driver and runs one workload.

    python3 perfbench/run.py --workload solve|arch|serve|batch \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The driver binary is built from source
(perfbench/CMakeLists.txt compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when unset. Each run gets a fresh work directory under the
build directory, removed at exit, and the workload process is killed if
it exceeds its wall-time cap. The last stdout line is the JSON record
{"correct", "attempted", "failed", "metrics"}; with --trace 1 it holds
the per-layer metrics and the span trace is written to
<build dir>/traces/<workload>-seed<N>.json.

The driver binary prints every metric it measured. This script checks
them against BENCHMARK.json and CARRIED below: every end-to-end metric
and every per-layer metric the workload carries must be there with its
unit. Per-layer metrics a workload does not carry read 0.

--selftest runs every workload at tiny sizes, checks that each metric
named in BENCHMARK.json is emitted with its unit, that a carried metric
gone missing is caught, and that every correctness check fails when
handed a deliberately wrong reference.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_CAP_S = 850
RUN_CAP_S = 170
BUILD_JOBS = "3"

# Per-layer metrics each workload measures (the map in README.md).
LAYER_COMMON = [
    "lang.resolve_ms", "lang.resolve_count", "runtime.engine_build_ms",
    "lut.store.builds_per_job", "lut.store.hit_ratio",
    "runtime.session_create_ms", "kernels.step_ns_per_cell",
    "runtime.barrier_wait_frac", "runtime.publish_ns_per_step",
    "lut.interp.accesses_per_cell", "lut.interp.hit_rate",
    "kernels.traffic.bytes_per_cell", "kernels.traffic.flops_per_byte",
    "program.checkpoint_write_ms", "program.checkpoint_read_ms",
    "program.checkpoint_bytes", "trace.overhead_frac",
]
CARRIED = {
    "solve": LAYER_COMMON,
    "arch": LAYER_COMMON + [
        "arch.run_ns_per_cell", "arch.host_ns_per_sim_kcycle",
        "arch.sim_cycles", "arch.stall_l2_cycles", "arch.stall_dram_cycles",
        "arch.lut.l1_miss_rate", "arch.lut.l2_miss_rate",
        "arch.dram_fetches"],
    "serve": LAYER_COMMON + [
        "serve.submit_rtt_p50_ms", "serve.submit_rtt_p99_ms",
        "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
        "serve.job_run_p50_ms", "serve.rejected", "load.late_p99_ms"],
    "batch": LAYER_COMMON + [
        "batch.job_wall_p50_ms", "batch.overhead_ms_per_job"],
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))


def load_contract():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            contract = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return contract


def child_env(bdir):
    """Environment for the build and the driver: temporary files stay
    inside the build directory (and so inside the checkout)."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(bdir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime",
                                       "solver_session.h")):
        fail("solver sources (src/) not found next to perfbench/")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(bdir)  # configured for another checkout
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", BUILD_JOBS])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_CAP_S, env=child_env(bdir))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail(f"build step {' '.join(cmd[:2])} failed")
    return os.path.join(bdir, "perfbench")


def run_binary(binary, bdir, args):
    """Runs the driver in a fresh work directory under a wall-time cap.

    Returns (exit code, stdout text, stderr text).
    """
    os.makedirs(os.path.join(bdir, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(bdir, "work"))
    cmd = [binary, "--work-dir", work,
           "--zoo-dir", os.path.join(ROOT, "zoo")] + args
    proc = None
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                start_new_session=True, env=child_env(bdir))
        out, err = proc.communicate(timeout=RUN_CAP_S)
    except subprocess.TimeoutExpired:
        return None, "", f"exceeded the {RUN_CAP_S} s wall-time cap"
    finally:
        # Also reached on SIGTERM/SIGINT (see main): the driver and
        # anything it started are killed and waited for.
        if proc is not None and proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
    return (proc.returncode, out.decode(errors="replace"),
            err.decode(errors="replace"))


def parse_record(stdout):
    """The driver's last stdout line as a dict; None when it is not one
    JSON object or repeats a key."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None

    def unique(pairs):
        keys = [k for k, _ in pairs]
        if len(keys) != len(set(keys)):
            raise ValueError(f"repeated key in {keys}")
        return dict(pairs)

    try:
        record = json.loads(lines[-1], object_pairs_hook=unique)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def make_record(measured, contract, workload, trace):
    """The result record of one run from the driver's record.

    Returns (record, problems). The metrics are the contract's
    end-to-end set, or its per-layer set when traced; a per-layer
    metric the workload does not carry reads 0.
    """
    if set(measured) != {"correct", "attempted", "failed", "metrics"}:
        return None, [f"driver record keys {sorted(measured)}"]
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    got = measured["metrics"]
    problems = []
    for name, metric in got.items():
        if name not in units:
            problems.append(f"{name} is not in BENCHMARK.json")
        elif metric.get("unit") != units[name]:
            problems.append(f"{name} unit {metric.get('unit')} "
                            f"!= {units[name]}")
    required = [m["name"] for m in contract["end_to_end"]]
    if trace:
        required = CARRIED[workload]
        layer_names = {m["name"] for m in contract["per_layer"]}
        extra = sorted(n for n in got
                       if n in layer_names and n not in required)
        if extra:
            problems.append(f"{extra} measured but not in CARRIED")
    missing = [n for n in required if n not in got]
    if missing:
        problems.append(f"{missing} not measured")
    if (not isinstance(measured["attempted"], int)
            or measured["attempted"] < 1
            or not isinstance(measured["failed"], int)):
        problems.append("attempted and failed must be whole numbers, "
                        "attempted >= 1")
    if problems:
        return None, problems
    metrics = {}
    for m in contract["per_layer" if trace else "end_to_end"]:
        value = got[m["name"]]["value"] if m["name"] in got else 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": measured["correct"], "attempted":
            measured["attempted"], "failed": measured["failed"],
            "metrics": metrics}, []


def run_workload(args, contract):
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload '{args.workload}' (one of {names})")
    bdir = build_dir()
    binary = build(bdir)
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        extra += ["--trace-out",
                  os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    code, out, err = run_binary(binary, bdir, extra)
    sys.stderr.write(err)
    if code is None:
        fail(f"workload '{args.workload}' {err}")
    # The driver names a failed check on stderr; its record stays
    # visible there.
    if code != 0:
        sys.stderr.write(out)
        fail(f"workload '{args.workload}' exited with code {code}")
    measured = parse_record(out)
    if measured is None:
        fail(f"workload '{args.workload}' printed no JSON record")
    record, problems = make_record(measured, contract, args.workload,
                                   args.trace)
    if problems:
        fail(f"workload '{args.workload}': " + "; ".join(problems))
    # The driver's lines before its record (the fingerprint), then ours.
    sys.stdout.write("".join(out.strip().splitlines(True)[:-1]).rstrip()
                     + "\n")
    print(json.dumps(record))
    sys.stdout.flush()


def selftest(contract):
    bdir = build_dir()
    binary = build(bdir)
    failures = []
    check_names = {}
    for workload in [w["name"] for w in contract["workloads"]]:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--tiny"]
        for trace in (0, 1):
            code, out, err = run_binary(binary, bdir,
                                        base + ["--trace", str(trace)])
            # The driver reports each check it ran as "check NAME pass".
            check_names[workload] = [
                line.split()[1] for line in err.splitlines()
                if line.startswith("check ")]
            measured = parse_record(out)
            if code != 0 or measured is None:
                failures.append(f"{workload} trace={trace}: exit {code}\n"
                                f"{err}")
                continue
            record, problems = make_record(measured, contract, workload,
                                           trace)
            for p in problems:
                failures.append(f"{workload} trace={trace}: {p}")
            if record is None:
                continue
            if not record["correct"] or record["failed"] != 0:
                failures.append(f"{workload} trace={trace}: checks failed")
            # A carried metric gone missing must be caught, not read 0.
            required = (CARRIED[workload] if trace else
                        [m["name"] for m in contract["end_to_end"]])
            for name in required:
                dropped = dict(measured, metrics={
                    k: v for k, v in measured["metrics"].items()
                    if k != name})
                if make_record(dropped, contract, workload, trace)[0]:
                    failures.append(f"{workload} trace={trace}: missing "
                                    f"{name} was not caught")
        checks = check_names.get(workload, [])
        if not checks:
            failures.append(f"{workload}: no correctness checks listed")
        for check in checks:
            code, out, err = run_binary(
                binary, bdir,
                base + ["--trace", "0", "--corrupt-check", check])
            measured = parse_record(out)
            named = f"workload '{workload}' failed check '{check}'" in err
            if (code == 0 or measured is None or measured["correct"]
                    or measured["failed"] == 0 or not named):
                failures.append(f"{workload}: check {check} did not fail "
                                "on a wrong reference")
            else:
                print(f"selftest: {workload}: {check} fails on a wrong "
                      "reference", file=sys.stderr)
        print(f"selftest: {workload}: ok" if not any(
            f.startswith(workload) for f in failures)
              else f"selftest: {workload}: FAILED", file=sys.stderr)
    for f in failures:
        print(f"selftest: {f}", file=sys.stderr)
    print(json.dumps({"selftest": "fail" if failures else "pass",
                      "failures": len(failures)}))
    sys.exit(1 if failures else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda n, _: sys.exit(128 + n))
    contract = load_contract()
    if args.selftest:
        selftest(contract)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run_workload(args, contract)


if __name__ == "__main__":
    main()
