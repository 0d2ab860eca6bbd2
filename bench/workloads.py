"""The benchmark's workloads: fixed lists of eprb-lab commands made from a seed.

Each workload is a closed loop with one client: its commands run one after
another, each started when the previous one has exited.  The workload seed
fixes every input the program receives (angles, bias, the program's own
``--seed``); the sizes are constants, so every seed asks for the same work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Sweep rows per sweep-grid run; each row does two full grid(1024) sweeps.
SWEEP_STEPS = 6
#: Runs of the logged game: under one 2**20 block, so one pass holds all runs.
LOG_RUNS = 150_000
#: Monte Carlo samples and game runs in mc-mix: more than one 2**20 block and
#: not a multiple of it, so the last block is short.
MC_SAMPLES = 1_100_000
MC_RUNS = 1_100_000

WHY = {
    "sweep-grid": "kernel-heavy: every sweep row runs two full grid(1024) sweeps through "
    "outcome calls, classification and reduction",
    "comm-log": "write-heavy: per-run records of the game streamed to a CSV log, no sweeps",
    "mc-mix": "many short Monte Carlo commands: start-up per command, Philox blocks with a "
    "short last block, a biased density, ordering and the game without a log",
}


@dataclass(frozen=True)
class Command:
    """One eprb-lab invocation and what the checker needs to know about it.

    ``argv`` excludes the program name; ``outputs`` are the files (relative
    to the working directory) the command writes, manifest included.
    """

    kind: str
    argv: tuple[str, ...]
    params: dict
    outputs: tuple[str, ...]


def _arg(value: float) -> str:
    return repr(float(value))


def _program_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**32)


def sweep(name: str, theta_min: float, theta_max: float, steps: int, grid: int | None = None) -> Command:
    argv = ["sweep", "--model", "singlet", "--theta-min", _arg(theta_min),
            "--theta-max", _arg(theta_max), "--steps", str(steps)]
    if grid is not None:
        argv += ["--grid", str(grid)]
    argv += ["--out", f"{name}.csv", "--svg", f"{name}.svg"]
    params = {"theta_min": theta_min, "theta_max": theta_max, "steps": steps, "grid": grid}
    return Command("sweep", tuple(argv), params, (f"{name}.csv", f"{name}.svg", f"{name}.csv.manifest.json"))


def comm(name: str, theta: float, runs: int, seed: int, log: bool) -> Command:
    argv = ["comm", "--theta", _arg(theta), "--runs", str(runs), "--seed", str(seed),
            "--out", f"{name}.csv"]
    outputs = [f"{name}.csv"]
    if log:
        argv += ["--log", f"{name}_log.csv"]
        outputs.append(f"{name}_log.csv")
    params = {"theta": theta, "runs": runs, "seed": seed, "log": f"{name}_log.csv" if log else None}
    return Command("comm", tuple(argv), params, (*outputs, f"{name}.csv.manifest.json"))


def mc_command(kind: str, name: str, samples: int, seed: int, **params: float) -> Command:
    """stats, transition, signal or moc under Monte Carlo; ``params`` holds
    theta and q (stats, transition), q, a1, a2, b (signal) or theta (moc)."""
    argv = [kind]
    if kind in ("stats", "transition"):
        argv += ["--model", f"singlet+bias:q={_arg(params['q'])}", "--theta", _arg(params["theta"])]
    elif kind == "signal":
        argv += ["--q", _arg(params["q"]), "--a1", _arg(params["a1"]), "--a2", _arg(params["a2"]),
                 "--b-setting", _arg(params["b"])]
    elif kind == "moc":
        argv += ["--theta", _arg(params["theta"])]
    else:
        raise ValueError(f"not a Monte Carlo command: {kind}")
    argv += ["--mc", str(samples), "--seed", str(seed), "--out", f"{name}.csv"]
    return Command(kind, tuple(argv), {**params, "mc": samples, "seed": seed},
                   (f"{name}.csv", f"{name}.csv.manifest.json"))


def build(workload: str, seed: int) -> list[Command]:
    """The command list of one workload at one workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-grid":
        return [sweep("sweep", rng.uniform(0.05, 0.35), rng.uniform(2.8, 3.1), SWEEP_STEPS)]
    if workload == "comm-log":
        theta = math.pi / 4 + rng.uniform(-0.1, 0.1)
        return [comm("comm", theta, LOG_RUNS, _program_seed(rng), log=True)]
    if workload == "mc-mix":
        q = rng.uniform(0.6, 0.9)
        theta = math.pi / 4 + rng.uniform(-0.15, 0.15)
        program_seed = _program_seed(rng)
        b, a1, a2 = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(3))
        return [
            mc_command("stats", "stats", MC_SAMPLES, program_seed, theta=theta, q=q),
            mc_command("transition", "transition", MC_SAMPLES, program_seed, theta=theta, q=q),
            mc_command("signal", "signal", MC_SAMPLES, program_seed, q=q, a1=a1, a2=a2, b=b),
            mc_command("moc", "moc", MC_SAMPLES, program_seed, theta=theta),
            comm("comm", theta, MC_RUNS, program_seed, log=False),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WHY)}")
