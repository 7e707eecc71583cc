"""The benchmark's workloads: which CLI mode, which config, what to check.

Standard library only: the worker imports this before its set-up clock starts.
"""

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG_DIR = HERE / "configs"

# The ROADMAP reference draw.  solve2d and farfield3d time this draw on every
# run.  With the same code, solve2d's wall time ranged from 22 s to 42 s over
# six seeds (steps per start from 16 to 2,000), and farfield3d's from 6.0 s to
# 7.5 s (38 to 55 descent steps), its peak memory moving with the draw too.
# That is wider than any usable bound on a metric compared by its median over
# runs with different seeds.
REFERENCE_SEED = 12345


@dataclass(frozen=True)
class Workload:
    mode: str
    config: str | None
    level: float | None = None        # expected minimax level, seed-independent
    timed_seed: int | None = None     # draw whose wall time is reported; None: the --seed draw
    seed_pass: bool = False           # untraced runs also solve the --seed draw once, untimed


WORKLOADS = {
    # the --seed draw's failed starts are the outcome users wait on, so every run solves it
    "solve2d": Workload("solve", "solve2d.cfg", level=0.183934971713,
                        timed_seed=REFERENCE_SEED, seed_pass=True),
    # its --seed draw runs only with --trace 1, to keep untraced runs short
    "farfield3d": Workload("farfield", "farfield3d.cfg", timed_seed=REFERENCE_SEED),
    "selftest": Workload("selftest", None),
    # not in BENCHMARK.json: the benchmark's own smoke test
    "smoke2d": Workload("solve", "smoke2d.cfg", timed_seed=REFERENCE_SEED, seed_pass=True),
}
