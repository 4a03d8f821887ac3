"""The benchmark's workloads: fixed sequences of ramseykit CLI commands.

Every instance is fixed, because every command's output is pinned in
``expected.json``.  The seed decides the order in which independent
commands run (a random topological order of the file dependencies) and,
in a traced run, which field-element pairs the kernel sample times.
Every command is pinned to ``--threads 2``: the default is
``os.cpu_count()``, which differs between machines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

THREADS = ("--threads", "2")

# Files the harness writes before the first command: the one-edge K_2
# coloring (one color), which is the G input of the first composition.
K2_FILE = "k2.col"
K2_TEXT = "ramsey-coloring v1\nn=2 colors=1 repr=explicit\n1\n"

_INPUT_FLAGS = ("-i", "--t", "--g")


@dataclass(frozen=True)
class Command:
    """One CLI invocation, ``ramseykit <argv> --threads 2``."""

    text: str

    @property
    def argv(self) -> list[str]:
        return self.text.split() + list(THREADS)

    @property
    def subcommand(self) -> str:
        return self.text.split()[0]

    def _flag_values(self, flags) -> tuple[str, ...]:
        words = self.text.split()
        return tuple(words[i + 1] for i, w in enumerate(words[:-1]) if w in flags)

    @property
    def inputs(self) -> tuple[str, ...]:
        return self._flag_values(_INPUT_FLAGS)

    @property
    def coloring_outputs(self) -> tuple[str, ...]:
        return self._flag_values(("-o",))

    @property
    def cert(self) -> str | None:
        certs = self._flag_values(("--cert",))
        return certs[0] if certs else None


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # The heaviest command that can use workers, rerun with --threads 1 in a
    # traced run; its 2-thread/1-thread ratio is reported under this
    # per-layer metric.  None where no command of the workload uses workers.
    probe: str | None
    probe_metric: str | None
    harness_files: tuple[str, ...] = ()

    def ordered(self, seed: int) -> list[Command]:
        """A seeded random order in which every input exists before use."""
        rng = random.Random(seed)
        have = set(self.harness_files)
        pending = list(self.commands)
        out = []
        while pending:
            ready = [c for c in pending if set(c.inputs) <= have]
            if not ready:
                raise ValueError(f"{self.name}: unsatisfiable inputs in {pending}")
            cmd = rng.choice(ready)
            pending.remove(cmd)
            out.append(cmd)
            have.update(cmd.coloring_outputs)
        return out

    @property
    def probe_command(self) -> Command | None:
        return next((c for c in self.commands if c.text == self.probe), None)


def _cmds(*texts: str) -> tuple[Command, ...]:
    return tuple(Command(t) for t in texts)


def _certify(name: str, p: int, k: int, m: int, targets: str) -> tuple[str, str]:
    degree = f" -k {k}" if k > 1 else ""
    return (f"build -p {p}{degree} -m {m} -o {name}.col",
            f"verify -i {name}.col --targets {targets} --cert {name}.cert")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="residue-search",
        commands=_cmds(
            "search --mod 3 -t 8 --min 2000 --max 2350",
            "search --galois 2,12 --mod 3 -t 6",
            "search --galois 3,8 --mod 2 -t 7",
        ),
        probe="search --mod 3 -t 8 --min 2000 --max 2350",
        probe_metric="residues.speedup_2w",
    ),
    Workload(
        name="circulant-certify",
        commands=_cmds(
            *_certify("z241", 241, 1, 3, "5,5,5"),
            *_certify("z691", 691, 1, 3, "6,6,6"),
            *_certify("z1213", 1213, 1, 3, "7,7,7"),
            *_certify("gf1024", 2, 10, 3, "6,6,6"),
        ),
        # Every coloring here is circulant, so verify searches from the
        # single root 0 and never splits the search over workers.
        probe=None,
        probe_metric=None,
    ),
    Workload(
        name="compose-chain",
        commands=_cmds(
            *_certify("gf16", 2, 4, 3, "3,3,3"),
            *_certify("z5", 5, 1, 2, "3,3"),
            "compose --t gf16.col --g k2.col --targets 3 -o h50.col",
            "verify -i h50.col --targets 3,3,3,3 --cert h50.cert",
            "compose --t h50.col --g z5.col --targets 3,3 -o h155.col",
            "verify -i h155.col --targets 3,3,3,3,3 --cert h155.cert",
            "compose --t h155.col --g gf16.col --targets 3,3,3 -o h481.col",
            "verify -i h481.col --targets 3,3,3,3,3,3 --cert h481.cert",
            "compose --t h481.col --g h50.col --targets 3,3,3,3 -o h1493.col",
            "verify -i h1493.col --targets 3,3,3,3,3,3,3 --cert h1493.cert",
        ),
        probe="verify -i h1493.col --targets 3,3,3,3,3,3,3 --cert h1493.cert",
        probe_metric="verify.speedup_2w",
        harness_files=(K2_FILE,),
    ),
    # Not listed in BENCHMARK.json: tiny instances for the harness tests.
    Workload(
        name="smoke",
        commands=_cmds(
            "search --mod 3 -t 3 --min 13 --max 13",
            *_certify("z13", 13, 1, 3, "3,3,3"),
            "build -p 2 -k 4 -m 3 -o gf16.col",
            "compose --t gf16.col --g k2.col --targets 3 -o h50.col",
            "verify -i h50.col --targets 3,3,3,3 --cert h50.cert",
        ),
        probe="verify -i h50.col --targets 3,3,3,3 --cert h50.cert",
        probe_metric="verify.speedup_2w",
        harness_files=(K2_FILE,),
    ),
)}


def prepare(workload: Workload, workdir) -> None:
    """Write the harness input files into an existing directory."""
    if K2_FILE in workload.harness_files:
        (workdir / K2_FILE).write_text(K2_TEXT, encoding="ascii")
