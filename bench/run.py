"""ramseykit benchmark: CLI pipelines timed end to end, layers from a traced replay.

    python3 bench/run.py --workload compose-chain --seed 1 --trace 0
    python3 bench/run.py                  # every workload, untraced then traced

With ``--trace 0`` the workload's command sequence runs as separate
``python -m ramseykit.cli`` processes, again while at least half of another
repetition fits in ``--seconds`` (by default the ``run_seconds`` of
BENCHMARK.json), and the end-to-end metrics come from medians over those
repetitions.
With ``--trace 1`` the sequence runs once as processes, the heaviest
command that uses workers once more with ``--threads 1``, and then the sequence four times
in-process (untraced, traced, traced, untraced, each in a fresh
interpreter); the per-layer metrics come from the traced replays.

Every command's exit code, stdout, coloring files and certificates are
checked against ``expected.json``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  A detailed
result file goes to ``.bench_out/``.

``--pin`` rewrites ``expected.json`` from the current code instead.
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
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
REPLAY = Path(__file__).resolve().parent / "replay.py"

SETUP_SAMPLES = 5
# On a shared VM the CPU speed can drift by a quarter within minutes, and
# every process slows together, though not all kinds of work by the same
# share: a bare interpreter start slowed by 37% while the commands slowed by
# 20%.  The end-to-end times are therefore reported in units of a yardstick
# process that does the kinds of work a command does, with no ramseykit
# code: it starts an interpreter, imports the standard modules the CLI
# imports, runs integer loops, intersects big-integer bit rows, and builds
# and hashes a text file in memory.  It runs YARDSTICK_SAMPLES times at the
# start of every repetition; the seconds are kept as per-layer metrics.
YARDSTICK_CODE = """
import argparse, concurrent.futures, dataclasses, hashlib, pathlib, re
x, acc, seen = 1, 0, {}
for i in range(60000):
    x = x * 48271 % 2147483647
    acc ^= x >> 7
    seen[x & 4095] = i
rows = [(x * (i + 3)) & ((1 << 240) - 1) for i in range(240)]
for a in rows:
    for b in rows[::2]:
        acc += (a & b).bit_count()
text = "\\n".join(" ".join(map(str, range(i, i + 40))) for i in range(4000))
hashlib.sha256(text.encode()).hexdigest()
"""
YARDSTICK = [sys.executable, "-c", YARDSTICK_CODE]
YARDSTICK_SAMPLES = 5
# A no-op CLI command: interpreter start, import ramseykit, argparse.
NOOP = ["primes", "--mod", "2", "--min", "2", "--max", "2", *workloads.THREADS]
# Counts that must repeat exactly on every run of the same code.
EXACT_COUNTS = ("verify.nodes", "construct.edges", "residues.sieve_len",
                "residues.bound_orders", "residues.orders")

SUBCOMMANDS = ("search", "build", "compose", "verify")


class Failure(Exception):
    """The benchmark cannot run: a no-op, launcher or replay process failed."""


# -- running commands --------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], cwd: Path) -> dict:
    """Run one process to completion: exit code, wall time, stdout, stderr."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=_env(), capture_output=True,
                          stdin=subprocess.DEVNULL)
    return {"exit": proc.returncode, "wall_s": time.perf_counter() - start,
            "stdout": proc.stdout.decode("utf-8", "replace"),
            "stderr": proc.stderr.decode("utf-8", "replace")}


def _cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "ramseykit.cli", *argv]


# Runs the command in argv[2:] and writes its exit code, wall time and
# rusage (its reaped pool workers included) as JSON to argv[1].  A process's
# max-RSS starts at its parent's RSS when it is forked, and the harness is
# larger than a ramseykit process, so commands are forked from this small
# interpreter instead of from the harness.
LAUNCHER = """
import json, os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as out:
    json.dump({"exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "maxrss_mb": usage.ru_maxrss / 1024}, out)
"""


def launch(argv: list[str], cwd: Path) -> dict:
    """Run one process from the launcher; exit, stdout, and the process's
    own wall time, CPU time and max-RSS."""
    report = cwd / ".launcher.json"
    result = run_process([sys.executable, "-S", "-c", LAUNCHER, str(report), *argv], cwd)
    try:
        result.update(json.loads(report.read_text(encoding="utf-8")))
    except (OSError, ValueError) as exc:
        raise Failure(f"launcher failed ({exc}): {result['stderr'].strip()}") from exc
    report.unlink()
    return result


def run_cli(argv: list[str], cwd: Path) -> dict:
    """Run one CLI command from the launcher."""
    return launch(_cli(argv), cwd)


class WorkDirs:
    """Fresh scratch directories under .bench_out/, removed on close."""

    def __init__(self):
        self.base = OUT_DIR / f"work-{os.getpid()}"
        self._n = 0

    def new(self) -> Path:
        self._n += 1
        path = self.base / str(self._n)
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def setup_time(workload, dirs: WorkDirs) -> float:
    """Harness setup plus one no-op CLI process, in seconds."""
    start = time.perf_counter()
    workdir = dirs.new()
    workloads.prepare(workload, workdir)
    noop = run_process(_cli(NOOP), workdir)
    elapsed = time.perf_counter() - start
    if noop["exit"] != 0:
        raise Failure(f"no-op CLI command failed: {noop['stderr'].strip()}")
    shutil.rmtree(workdir)
    return elapsed


def run_pipeline(workload, order, workdir: Path) -> list[dict]:
    """Run the commands in order."""
    workloads.prepare(workload, workdir)
    results = []
    for cmd in order:
        res = run_cli(cmd.argv, workdir)
        res["command"] = cmd.text
        results.append(res)
    return results


def replay_process(workload, seed: int, trace: int, workdir: Path) -> dict:
    report_path = workdir.parent / f"replay-{workdir.name}.json"
    proc = run_process([sys.executable, str(REPLAY), "--workload", workload.name,
                        "--workdir", str(workdir), "--seed", str(seed),
                        "--trace", str(trace), "--out", str(report_path)], ROOT)
    if proc["exit"] != 0:
        raise Failure(f"replay failed: {proc['stderr'].strip()}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report_path.unlink()
    return report


# -- correctness gate --------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def observe(cmd, result: dict, workdir: Path) -> dict:
    """What the gate compares: exit, stdout, coloring digests, certificate."""
    from ramseykit import read_certificate

    seen = {"exit": result["exit"], "stdout": result["stdout"],
            "files": {name: _sha256(workdir / name) if (workdir / name).is_file() else None
                      for name in cmd.coloring_outputs}}
    if cmd.cert is not None:
        path = workdir / cmd.cert
        try:
            cert = read_certificate(path)
        except (OSError, ValueError) as exc:
            seen["cert"] = f"unreadable: {exc}"
        else:
            seen["cert"] = {"verdict": "pass" if cert.passed else "fail",
                            "statement": cert.statement(),
                            "coloring_sha": cert.coloring_sha}
    return seen


def gate(workload, results: list[dict], workdir: Path, expected: dict) -> list[str]:
    """Names of the commands whose outputs differ from the pinned ones."""
    pinned = expected[workload.name]["commands"]
    cmds = {c.text: c for c in workload.commands}
    failures = []
    for res in results:
        cmd = cmds[res["command"]]
        seen = observe(cmd, res, workdir)
        want = pinned.get(cmd.text)
        bad = [key for key in ("exit", "stdout", "files", "cert")
               if want is None or seen.get(key) != want.get(key)]
        if bad:
            failures.append(f"{cmd.text} [{', '.join(bad)}]")
    return failures


# -- modes -------------------------------------------------------------------

def _subcommand_sums(workload, results) -> dict[str, float]:
    subs = {c.text: c.subcommand for c in workload.commands}
    return {f"{name}_s": sum(r["wall_s"] for r in results if subs[r["command"]] == name)
            for name in SUBCOMMANDS}


def measure_untraced(workload, seed: int, seconds: float, dirs: WorkDirs,
                     expected: dict) -> dict:
    order = workload.ordered(seed)
    reps = []
    setups = []
    yardstick = []
    failures = []
    attempted = 0
    start = time.perf_counter()
    # Set-up samples are spread over the run, one before each repetition,
    # so that their median does not hang on one moment's machine load.
    # Another repetition starts when ending after it is expected to come
    # closer to `seconds` than ending now: at least half of it fits.
    while not reps or (time.perf_counter() - start) * (1 + 0.5 / len(reps)) < seconds:
        setups.append(setup_time(workload, dirs))
        workdir = dirs.new()
        yardstick += [launch(YARDSTICK, workdir) for _ in range(YARDSTICK_SAMPLES)]
        results = run_pipeline(workload, order, workdir)
        attempted += len(results)
        failures += gate(workload, results, workdir, expected)
        shutil.rmtree(workdir)
        reps.append({"wall_s": sum(r["wall_s"] for r in results),
                     "cpu_s": sum(r["cpu_s"] for r in results),
                     "peak_rss_mb": max(r["maxrss_mb"] for r in results),
                     **_subcommand_sums(workload, results),
                     "commands": {r["command"]: [r["wall_s"], r["cpu_s"], r["maxrss_mb"]]
                                  for r in results}})
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_time(workload, dirs))
    metrics = {name: statistics.median([r[name] for r in reps]) for name in reps[0]
               if name != "commands"}
    metrics["setup_s"] = statistics.median(setups)
    if any(y["exit"] != 0 for y in yardstick):
        raise Failure("the yardstick process failed")
    unit = {key: statistics.median(y[key] for y in yardstick) for key in ("wall_s", "cpu_s")}
    metrics["wall_rel"] = metrics["wall_s"] / unit["wall_s"]
    metrics["cpu_rel"] = metrics["cpu_s"] / unit["cpu_s"]
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "samples": {"repetitions": len(reps), "setup": len(setups),
                        "yardstick": len(yardstick), "yardstick_wall_s": unit["wall_s"],
                        "yardstick_cpu_s": unit["cpu_s"]},
            "repetitions": reps}


def measure_traced(workload, seed: int, dirs: WorkDirs, expected: dict) -> dict:
    from replay import layer_metrics

    setups = [setup_time(workload, dirs) for _ in range(SETUP_SAMPLES)]
    failures = []
    attempted = 0

    # Untraced processes: subcommand sums, then the probe command again
    # with one thread, in the same directory so its inputs exist.
    workdir = dirs.new()
    results = run_pipeline(workload, workload.ordered(seed), workdir)
    sums = _subcommand_sums(workload, results)
    wall_s = sum(r["wall_s"] for r in results)
    cpu_s = sum(r["cpu_s"] for r in results)
    probe = workload.probe_command
    speedup = 0.0
    if probe is not None:
        two = next(r for r in results if r["command"] == probe.text)
        argv1 = [a if a != workloads.THREADS[1] else "1" for a in probe.argv]
        one = run_cli(argv1, workdir)
        one["command"] = probe.text
        results.append(one)
        speedup = one["wall_s"] / two["wall_s"]
    attempted += len(results)
    failures += gate(workload, results, workdir, expected)
    shutil.rmtree(workdir)

    # In-process replays in the order untraced, traced, traced, untraced,
    # each in a fresh interpreter, so that a steady drift in machine speed
    # cancels out of the tracing overhead.
    replays = {0: [], 1: []}
    for trace in (0, 1, 1, 0):
        workdir = dirs.new()
        report = replay_process(workload, seed, trace, workdir)
        attempted += len(report["results"])
        failures += gate(workload, report["results"], workdir, expected)
        shutil.rmtree(workdir)
        replays[trace].append(report)

    traced = replays[1]
    layers = [layer_metrics(r["spans"], r["counts"]) for r in traced]
    metrics = {name: statistics.mean(m[name] for m in layers) for name in layers[0]}
    for key in ("gf_mul_ns", "gf_sub_ns"):
        metrics[f"field.{key}"] = statistics.mean(r["field_sample"][key] for r in traced)
    for name in ("residues.speedup_2w", "verify.speedup_2w"):
        metrics[name] = speedup if name == workload.probe_metric else 0.0
    metrics["cli.startup_s"] = statistics.median(setups)
    metrics.update(sums)
    metrics["wall_s"] = wall_s
    metrics["cpu_s"] = cpu_s
    replay_wall = {trace: [r["wall_s"] for r in replays[trace]] for trace in (0, 1)}
    metrics["trace.overhead_frac"] = sum(replay_wall[1]) / sum(replay_wall[0]) - 1

    pinned = expected[workload.name].get("counts", {})
    drift = []
    for name in EXACT_COUNTS:
        seen = sorted({m[name] for m in layers})
        if len(seen) > 1:
            drift.append(f"{name} differs between the traced replays: {seen}")
        elif name in pinned and seen[0] != pinned[name]:
            drift.append(f"{name}={seen[0]} (pinned {pinned[name]})")
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "count_drift": drift,
            "samples": {"setup": len(setups), "traced_replays": len(traced),
                        "untraced_replays": len(replays[0]),
                        "field_sample": traced[0]["field_sample"],
                        "probe": probe and probe.text},
            "replay_wall_s": {"untraced": replay_wall[0], "traced": replay_wall[1]},
            "spans": [r["spans"] for r in traced]}


def pin(dirs: WorkDirs) -> dict:
    """Expectations from the current code: one process run per workload,
    plus the exact counts of a traced replay."""
    expected = {}
    for workload in workloads.WORKLOADS.values():
        workdir = dirs.new()
        order = workload.ordered(0)
        results = run_pipeline(workload, order, workdir)
        expected[workload.name] = {"commands": {
            cmd.text: observe(cmd, res, workdir) for cmd, res in zip(order, results)}}
        report = replay_process(workload, 0, 1, dirs.new())
        expected[workload.name]["counts"] = {
            name: report["counts"].get(name, 0) for name in EXACT_COUNTS}
    return expected


# -- metadata and output -----------------------------------------------------

def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ramseykit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "threads": int(workloads.THREADS[1])}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(name: str, seed: int, seconds: float, trace: int, expected: dict) -> int:
    """Measure one workload and print its metrics; the exit code."""
    dirs = WorkDirs()
    try:
        workload = workloads.WORKLOADS[name]
        if trace:
            run = measure_traced(workload, seed, dirs, expected)
        else:
            run = measure_untraced(workload, seed, seconds, dirs, expected)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        dirs.close()

    failures = run.pop("failures")
    attempted = run.pop("attempted")
    for failure in failures:
        print(f"GATE FAIL {name}: {failure}", file=sys.stderr)
    for drift in run.get("count_drift", ()):
        print(f"COUNT DRIFT {name}: {drift}", file=sys.stderr)

    metrics = run["metrics"]
    metrics["fail_frac"] = len(failures) / attempted
    spec = _spec()
    end_to_end, per_layer = ({m["name"]: m["unit"] for m in spec[key]}
                             for key in ("end_to_end", "per_layer"))
    units = {**end_to_end, **per_layer}
    for metric, value in metrics.items():
        print(f"{metric:28s} {value:16.6f} {units[metric]}")
    reported = {metric: {"value": metrics[metric], "unit": unit}
                for metric, unit in (per_layer if trace else end_to_end).items()}
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"{name}-seed{seed}-trace{trace}.json"
    result_path.write_text(json.dumps(
        {"meta": metadata(name, seed, seconds, trace), "attempted": attempted,
         "failures": failures, **run}, indent=1) + "\n", encoding="utf-8")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0 if not failures else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    help="default: every workload of BENCHMARK.json, untraced then traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite the pinned outputs from the current code")
    args = ap.parse_args(argv)

    if not (SRC / "ramseykit" / "cli.py").is_file():
        print(f"error: no ramseykit source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.pin:
        dirs = WorkDirs()
        try:
            pinned = pin(dirs)
        except Failure as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            dirs.close()
        EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"pinned {EXPECTED}")
        return 0

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds, args.trace, expected)
    codes = [run_one(w["name"], args.seed, args.seconds, trace, expected)
             for w in _spec()["workloads"] for trace in (0, 1)]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
