#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the repository's library sources and the benchmark runner) into
$CARGO_TARGET_DIR, default .bench_build; later runs only re-check the build.
The runner prints one line per metric, the provenance block and its own
verdict; this script then prints, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics, where
metrics holds exactly the end_to_end metrics of BENCHMARK.json (--trace 0)
or its per_layer metrics (--trace 1), and fails if the runner missed one.

Exit status: 0 on success; 1 if the outputs broke pairwise delivery order
(the result line is still printed); 2 if the build, the run or the result
could not be produced (no result line).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"command failed: {' '.join(cmd)}")


def build(out):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", HERE, "-B", out, *generator,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    run_checked(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_runner(out, workload, seed, seconds, trace):
    """Run the C++ runner in its own process group; return (code, lines)."""
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", runs, "--commit", git_commit()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"workload {workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        # Reap anything left in the runner's process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, stdout.splitlines()


def contract_line(spec, verdict, trace):
    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in names:
        got = verdict["metrics"].get(entry["name"])
        if got is None:
            fail(f"the runner did not report {entry['name']}")
        if got["unit"] and got["unit"] != entry["unit"]:
            fail(f"{entry['name']} reported in {got['unit']}, "
                 f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": got["value"], "unit": entry["unit"]}
    return {"correct": bool(verdict["correct"]),
            "attempted": int(verdict["attempted"]),
            "failed": int(verdict["failed"]),
            "metrics": metrics}


def run_one(spec, out, workload, seed, seconds, trace):
    code, lines = run_runner(out, workload, seed, seconds, trace)
    if code not in (0, 1) or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"runner exited with status {code}")
    try:
        verdict = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the runner's last line is not JSON")
    for line in lines[:-1]:
        print(line)
    result = contract_line(spec, verdict, trace)
    return result, bool(verdict.get("order_violation")) or code == 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    # "all" runs every workload BENCHMARK.json lists; any other name goes to
    # the runner as is.
    workloads = [w["name"] for w in spec["workloads"]]

    out = build_dir()
    try:
        build(out)
    except subprocess.TimeoutExpired:
        fail("build timed out")

    if args.workload != "all":
        result, violated = run_one(spec, out, args.workload, args.seed,
                                   args.seconds, args.trace)
        print(json.dumps(result))
        sys.exit(1 if violated else 0)

    # Every workload in turn; metrics keyed "<workload>/<metric>".
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    violated_any = False
    for name in workloads:
        print(f"== {name}")
        result, violated = run_one(spec, out, name, args.seed, args.seconds,
                                   args.trace)
        print(json.dumps(result))
        violated_any = violated_any or violated
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    sys.exit(1 if violated_any else 0)


if __name__ == "__main__":
    main()
