#!/usr/bin/env python3
"""Build and run one workload of the PolarStar reproduction benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n>

Run from the root of a checkout. `--workload all` runs every workload in
turn and prints each metric by name and unit, with each workload's
error rate (failed checks / checks attempted). The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that depends on the repository's crates by
path; it is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR (default `.bench_build`). Each call runs the workload
in a fresh process, so set-up time and peak RSS are never inherited.

Stdout ends with a host line (`# host {...}`: nproc, CPU model, rustc,
commit or source digest) and, last, the result object:
{"correct", "attempted", "failed", "metrics"}. The same record is
appended to <target>/perfbench/results.jsonl; a traced run also writes
its spans to <target>/perfbench/trace_<workload>_<seed>.json.

Exits non-zero without printing a result when the build fails, the run
fails or times out, or the metrics do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path.cwd()
PKG = pathlib.Path(__file__).resolve().parent
# One malloc arena: peak RSS then does not depend on which of the
# library's worker threads happened to allocate.
MALLOC_ARENAS = "1"
# The benchmark binary must finish well inside the 180 s run limit.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over every file the benchmark binary is built from."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", PKG.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml", ".lock"):
                files.append(path)
    h = hashlib.sha256()
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_record():
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "unknown",
        "source_digest": source_digest(),
    }


def build(env):
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(PKG / "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail("build failed")


def run_one(spec, target, env, workload, seed, seconds, trace):
    """Run one workload in a fresh process and return its result object."""
    out_dir = target / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if trace:
        cmd += ["--trace-out", str(out_dir / f"trace_{workload}_{seed}.json")]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{workload} exited with code {run.returncode}")
    result = json.loads(lines[-1])

    want = spec["per_layer"] if trace else spec["end_to_end"]
    want_units = {m["name"]: m["unit"] for m in want}
    got_units = {k: v["unit"] for k, v in result["metrics"].items()}
    if got_units != want_units:
        missing = sorted(set(want_units) - set(got_units))
        extra = sorted(set(got_units) - set(want_units))
        fail(f"metrics do not match BENCHMARK.json: missing {missing}, unexpected {extra}")

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_record(),
        "result": result,
    }
    with open(out_dir / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found; run from the root of a checkout")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not 1 <= seconds <= 60:
        fail(f"--seconds {seconds} outside [1, 60]")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target), MALLOC_ARENA_MAX=MALLOC_ARENAS)
    build(env)

    if args.workload != "all":
        record = run_one(spec, target, env, args.workload, args.seed, seconds, args.trace)
        print("# host " + json.dumps(record["host"]))
        print(json.dumps(record["result"]))
        return

    results = {}
    for name in names:
        record = run_one(spec, target, env, name, args.seed, seconds, args.trace)
        result = record["result"]
        results[name] = result
        print(f"# host {json.dumps(record['host'])}")
        for metric, v in result["metrics"].items():
            print(f"{name:<22} {metric:<40} {v['value']:>18.6f} {v['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"{name:<22} {'error_rate':<40} {rate:>18.6f} fraction "
              f"({result['failed']} of {result['attempted']} checks failed)")
    print(json.dumps(results))


if __name__ == "__main__":
    main()
