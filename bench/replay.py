"""In-process replay of a workload through ``ramseykit.cli.main(argv)``.

Run as a script, it replays one workload in a fresh interpreter (so that
module-level caches start cold) and writes a JSON report: per command the
exit code and stdout, the replay's wall time, and, when traced, the spans,
exact counts and a seeded field-kernel sample.

Tracing wraps the public entry points of each ramseykit module in timed
spans.  Each wrapper is installed on the attribute the caller looks up
(``cli`` imports most functions by name; ``certify`` reaches
``verify_witness`` and ``coloring_digest`` through the ``verify`` module's
globals; ``save_coloring`` and ``coloring_digest`` reach
``dumps_coloring`` through the ``coloring`` module's globals), and every
original is put back afterwards.  Nothing under ``src/`` is edited.

    python3 bench/replay.py --workload compose-chain --workdir DIR \
        --seed 1 --trace 1 --out report.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import time
import traceback
from collections import Counter
from functools import wraps
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# Field-kernel sample: this many (a, b) pairs per field, timed this many times.
KERNEL_FIELDS = ((2, 12), (3, 8))
KERNEL_PAIRS = 4000
KERNEL_REPEATS = 3


class Tracer:
    """Nested timed spans and exact counts, kept in memory.

    A span is ``[name, start, end, parent]``; ``parent`` is the index of the
    enclosing span or None.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid][1:3] = start, end

    def install(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span per call;
        ``count(counts, args, result)`` updates the exact counts."""
        original = getattr(owner, attr)

        @wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _count_sieve(counts, args, result):
    counts["residues.sieve_len"] += len(result)


def _count_normalized(counts, args, result):
    counts["residues.orders"] += 1
    counts["residues.bound_orders"] += result is None


def _count_compose(counts, args, result):
    counts["construct.edges"] += result.n * (result.n - 1) // 2


def _count_witness(counts, args, report):
    counts["verify.nodes"] += report.nodes
    counts["verify.colors"] += len(report.targets)
    counts["verify.refuted"] += not report.passed


def _count_save(counts, args, result):
    counts["coloring.bytes"] += os.path.getsize(args[1])


def _count_load(counts, args, result):
    counts["coloring.bytes"] += os.path.getsize(args[0])


def install_all(tracer: Tracer) -> None:
    """Wrap every traced entry point where its caller looks it up."""
    from ramseykit import cli, coloring, residues, verify

    tracer.install(cli, "make_field", "field.make_field")
    tracer.install(cli, "power_cosets", "residues.power_cosets")
    tracer.install(cli, "find_normalized_clique", "residues.normalized", _count_normalized)
    tracer.install(residues, "sieve", "residues.sieve", _count_sieve)
    tracer.install(cli, "build_cayley_coloring", "coloring.build")
    tracer.install(cli, "save_coloring", "coloring.save", _count_save)
    tracer.install(cli, "load_coloring", "coloring.load", _count_load)
    tracer.install(coloring, "dumps_coloring", "coloring.dumps")
    tracer.install(coloring, "loads_coloring", "coloring.loads")
    tracer.install(verify, "coloring_digest", "coloring.digest")
    for cls in (coloring.CirculantColoring, coloring.ExplicitColoring):
        tracer.install(cls, "neighbor_rows", "coloring.rows")
        tracer.install(cls, "to_explicit", "coloring.to_explicit")
    tracer.install(cli, "chung_compose", "construct.compose", _count_compose)
    tracer.install(verify, "verify_witness", "verify.witness", _count_witness)
    tracer.install(cli, "certify", "verify.certify")


def replay(workload, workdir: Path, seed: int, tracer: Tracer | None = None) -> dict:
    """Run the workload's commands in this process, in the seeded order.

    ``workdir`` must exist; harness files are written into it.  Returns
    per-command results and the wall time of the command sequence.
    """
    from ramseykit import cli

    workloads.prepare(workload, workdir)
    results = []
    here = os.getcwd()
    os.chdir(workdir)
    if tracer is not None:
        install_all(tracer)
    try:
        start = time.perf_counter()
        for cmd in workload.ordered(seed):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    with tracer.span("cli.command") if tracer else contextlib.nullcontext():
                        code = cli.main(cmd.argv)
                except Exception:
                    # What the interpreter does with an uncaught exception;
                    # the gate then reports the command by name.
                    traceback.print_exc()
                    code = 1
            results.append({"command": cmd.text, "exit": code,
                            "stdout": out.getvalue(), "stderr": err.getvalue()})
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
        os.chdir(here)
    return {"results": results, "wall_s": wall}


def field_kernel_sample(seed: int) -> dict:
    """Per-operation ns of FieldSpec.mul and .sub over seeded element pairs."""
    from ramseykit.field import make_field

    rng = random.Random(seed)
    mul_ns, sub_ns = [], []
    for _ in range(KERNEL_REPEATS):
        mul_total = sub_total = 0.0
        for p, k in KERNEL_FIELDS:
            spec = make_field(p, k)
            pairs = [(rng.randrange(spec.order), rng.randrange(spec.order))
                     for _ in range(KERNEL_PAIRS)]
            mul, sub = spec.mul, spec.sub
            t0 = time.perf_counter()
            for a, b in pairs:
                mul(a, b)
            t1 = time.perf_counter()
            for a, b in pairs:
                sub(a, b)
            t2 = time.perf_counter()
            mul_total += t1 - t0
            sub_total += t2 - t1
        ops = KERNEL_PAIRS * len(KERNEL_FIELDS)
        mul_ns.append(mul_total / ops * 1e9)
        sub_ns.append(sub_total / ops * 1e9)
    return {"gf_mul_ns": sorted(mul_ns)[KERNEL_REPEATS // 2],
            "gf_sub_ns": sorted(sub_ns)[KERNEL_REPEATS // 2],
            "fields": [f"GF({p}^{k})" for p, k in KERNEL_FIELDS],
            "pairs_per_field": KERNEL_PAIRS, "repeats": KERNEL_REPEATS, "seed": seed}


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer seconds and counts from the spans of one traced replay.

    Self time is a span's duration minus the time its child spans cover.
    """
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            child[parent] += dur[i]

    def total(name, parent=None):
        return sum(d for s, d in zip(spans, dur)
                   if s[0] == name and (parent is None or
                                        (s[3] is not None and spans[s[3]][0] == parent)))

    def self_time(name):
        return sum(d - c for s, d, c in zip(spans, dur, child) if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    c = Counter(counts)
    assemble = self_time("construct.compose")
    search = self_time("verify.witness")
    return {
        "field.make_field_s": total("field.make_field"),
        "residues.power_cosets_s": total("residues.power_cosets"),
        "residues.sieve_s": total("residues.sieve"),
        "residues.normalized_s": self_time("residues.normalized"),
        "residues.orders": c["residues.orders"],
        "residues.bound_orders": c["residues.bound_orders"],
        "residues.sieve_len": c["residues.sieve_len"],
        "coloring.build_s": total("coloring.build"),
        "coloring.rows_s": total("coloring.rows"),
        "coloring.rows_calls": calls("coloring.rows"),
        "coloring.to_explicit_s": total("coloring.to_explicit"),
        "coloring.dumps_s": total("coloring.dumps"),
        "coloring.loads_s": total("coloring.loads"),
        "coloring.digest_s": self_time("coloring.digest"),
        "coloring.io_s": self_time("coloring.save") + self_time("coloring.load"),
        "coloring.bytes": c["coloring.bytes"],
        "construct.compose_s": total("construct.compose"),
        "construct.validate_s": total("verify.witness", parent="construct.compose"),
        "construct.assemble_s": assemble,
        "construct.edges": c["construct.edges"],
        "construct.edges_per_s": per_s(c["construct.edges"], assemble),
        "verify.witness_s": total("verify.witness"),
        "verify.search_s": search,
        "verify.nodes": c["verify.nodes"],
        "verify.nodes_per_s": per_s(c["verify.nodes"], search),
        "verify.colors": c["verify.colors"],
        "verify.refuted": c["verify.refuted"],
        "verify.certify_s": (total("verify.certify")
                             - total("verify.witness", parent="verify.certify")),
        "cli.commands": calls("cli.command"),
        "cli.other_s": self_time("cli.command"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    report = replay(workloads.WORKLOADS[args.workload], args.workdir, args.seed, tracer)
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counts"] = dict(tracer.counts)
        report["field_sample"] = field_kernel_sample(args.seed)
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
