"""The three workloads: the commands of one round and their checks.

A round is a list of ``graphflow`` invocations run one after another.
Its inputs come from the round seed alone, which the benchmark draws
from the workload seed; the program sees that seed only as ``--seed``.
Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import checks

WORKLOADS = ("v2_mc", "cocycles_exact", "knot_cli")
KNOTS = ("circle", "trefoil", "figure_eight", "torus_2_5")
LINK = ("hopf_a", "hopf_b")
#: Two sample counts per knot and round, so that the fixed cost of a
#: ``knot v2`` command can be told from the cost that grows with samples.
V2_SAMPLES = ("2.5e4", "2e5")
COCYCLES = (("manifold", 3), ("manifold", 2), ("knot", 2))


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``key`` names it within a round; a replay
    shares its cache directory ``cache`` with the miss before it."""

    key: str
    args: tuple[str, ...]
    cache: str
    replay: bool = False

    @property
    def name(self) -> str:
        return " ".join(self.args[:2])

    @property
    def job(self) -> str:
        """What the command computes: the runs of one knot's v2 at
        different sample counts share a job."""
        return " ".join(self.args[:4]) if self.args[1] == "v2" else self.key


def plan(workload: str, round_seed: int) -> list[Command]:
    """The commands of one round, in an order shuffled by the seed."""
    rng = random.Random(round_seed)
    seed = str(round_seed)
    if workload == "v2_mc":
        jobs = [(k, n) for k in KNOTS for n in V2_SAMPLES]
        rng.shuffle(jobs)
        return [
            Command(
                f"v2 {k} {n}",
                ("knot", "v2", "--curve", k, "--samples", n, "--seed", seed, "--no-cache"),
                f"{k}-{n}",
            )
            for k, n in jobs
        ]
    if workload == "cocycles_exact":
        jobs = list(COCYCLES)
        rng.shuffle(jobs)
        return [
            Command(f"cocycles {f} {o}", ("graphs", "cocycles", "--flavor", f, "--order", str(o)), f"{f}{o}")
            for f, o in jobs
        ]
    if workload == "knot_cli":
        jobs = [(f"a2 {k}", ("knot", "a2", "--curve", k, "--seed", seed)) for k in KNOTS]
        jobs += [(f"sln {k}", ("knot", "sln", "--curve", k)) for k in KNOTS]
        jobs.append(("lk hopf", ("knot", "lk", "--curve", LINK[0], "--curve2", LINK[1])))
        rng.shuffle(jobs)
        out = []
        for name, args in jobs:
            cache = name.replace(" ", "_")
            out += [Command(f"{name} miss", args, cache), Command(f"{name} hit", args, cache, True)]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def result_of(stdout: str) -> dict | None:
    """The ``result`` object of a command's output, if it has one."""
    try:
        res = json.loads(stdout)["result"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return None
    return res if isinstance(res, dict) else None


def mc_result(stdout: str) -> dict | None:
    """A Monte Carlo result, None for exact or failed ones."""
    res = result_of(stdout)
    return res if res and res.get("method") == "mc" else None


def check_round(cmds: list[Command], outputs: dict[str, tuple[int, str]], cocycle_ref) -> dict[str, str]:
    """Reasons, by command key, why outputs of one round are wrong.

    ``outputs`` maps keys to (exit code, stdout).  ``cocycle_ref(flavor,
    order)`` returns the reference for ``checks.check_cocycles``.
    """
    errors: dict[str, str] = {}
    docs = {}
    for c in cmds:
        code, stdout = outputs[c.key]
        if code != 0:
            errors[c.key] = f"exit code {code}"
            continue
        doc, err = checks.parse(stdout, c.name)
        if err:
            errors[c.key] = err
        else:
            docs[c.key] = doc
    v2 = [c for c in cmds if c.args[1] == "v2"]
    for n in {c.args[5] for c in v2}:
        same_n = [c for c in v2 if c.args[5] == n]
        by_knot = checks.check_v2({c.args[3]: docs[c.key]["result"] for c in same_n if c.key in docs})
        errors.update({c.key: by_knot[c.args[3]] for c in same_n if c.args[3] in by_knot})
    for c in cmds:
        if c.key not in docs:
            continue
        res = docs[c.key]["result"]
        op = c.args[1]
        if op == "cocycles":
            err = checks.check_cocycles(res, *cocycle_ref(c.args[3], int(c.args[5])))
        elif op == "a2":
            err = checks.check_a2(res, c.args[3])
        elif op == "sln":
            err = checks.check_sln(res)
        elif op == "lk":
            err = checks.check_lk(res)
        else:
            err = None
        if err:
            errors[c.key] = err
    return errors
