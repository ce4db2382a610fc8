"""Benchmark of the graphflow CLI over three workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {v2_mc,cocycles_exact,knot_cli} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` every command runs as a fresh ``python -m
graphflow.cli`` process with its own empty cache directory, and the
end-to-end metrics are printed, with wall times scaled to the speed
at which ``bench/reference.py`` takes REF_S.  With ``--trace 1`` each round runs
twice in fresh interpreters through ``cli.main``, once plain and once
with span wrappers around every layer, and the per-layer metrics are
printed.  Rounds repeat until the next one would end after S seconds of
measured time (at least MIN_ROUNDS, or one traced pair).  Every output
is checked; a wrong one counts as a failed operation.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_PER_ROUND = 2
#: Wall time of bench/reference.py at the speed the reported times are
#: scaled to; about its median on the machine the bounds were set on.
REF_S = 0.25
MIN_ROUNDS = 3
SIGMA_TARGET = 0.01
COMMAND_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Metric names and units, as BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Outcome:
    wall: float
    rss_mb: float
    code: int
    stdout: str


@dataclass
class Record:
    """One command as run: round index, what ran, what came back."""

    round: int
    cmd: workloads.Command
    outcome: Outcome
    timed: bool = True
    error: str | None = None


class Runner:
    """Starts graphflow processes in a pinned environment under ``work``."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "HOME": str(work),
            "XDG_CACHE_HOME": str(work / "xdg"),
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "GRAPHFLOW_WORKERS": "1",
            **{var: "1" for var in THREAD_VARS},
        }
        self._n = 0

    def run(self, argv: list[str], cache_dir: Path) -> Outcome:
        """Run to completion; wall time and peak RSS come from wait4."""
        self._n += 1
        out_path = self.work / f"stdout-{self._n}"
        env = dict(self.env, GRAPHFLOW_CACHE_DIR=str(cache_dir))
        with open(out_path, "w+b") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=self.work)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read().decode(errors="replace")
        out_path.unlink()
        return Outcome(wall, usage.ru_maxrss / 1024, proc.returncode, stdout)

    def cli(self, args, cache_dir: Path) -> Outcome:
        return self.run([sys.executable, "-m", "graphflow.cli", *args], cache_dir)

    def inprocess(self, cmds, rdir: Path, trace: bool):
        """One round through ``bench/inprocess.py``; (outcomes, child doc, spans)."""
        rdir.mkdir(parents=True)
        plan = {"commands": [
            {"key": c.key, "args": list(c.args), "cache_dir": str(rdir / c.cache)} for c in cmds
        ]}
        (rdir / "plan.json").write_text(json.dumps(plan))
        argv = [sys.executable, str(BENCH / "inprocess.py"), str(rdir / "plan.json"), str(rdir / "out.json")]
        if trace:
            argv.append(str(rdir / "spans.jsonl"))
        proc = self.run(argv, rdir / "unused-cache")
        try:
            doc = json.loads((rdir / "out.json").read_text())
        except (OSError, json.JSONDecodeError):
            doc = None
        if proc.code != 0 or doc is None or Path(doc["graphflow_file"]).parent != SRC / "graphflow":
            failed = Outcome(proc.wall / len(cmds), proc.rss_mb, proc.code or 1, "")
            return {c.key: failed for c in cmds}, None, None
        outs = {r["key"]: Outcome(r["wall"], proc.rss_mb, r["code"], r["stdout"]) for r in doc["results"]}
        return outs, doc, spans.read_jsonl(rdir / "spans.jsonl") if trace else None


@functools.lru_cache(maxsize=None)
def cocycle_ref(flavor: str, order: int):
    """Reference for ``checks.check_cocycles`` from graphflow's own
    ``solver.delta_matrix``, computed in this process and never timed.

    It is kept under WORK with a digest of the graphflow sources in its
    name, so that later runs on the same sources read it back instead
    of spending the time of another enumeration.
    """
    from graphflow.graphs import Flavor, knot_order2_cocycle, manifold_order2_cocycle
    from graphflow.solver import delta_matrix

    digest = hashlib.sha256()
    for f in sorted((SRC / "graphflow").rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    path = WORK / f"ref-{flavor}{order}-{digest.hexdigest()[:16]}.json"
    if path.exists():
        basis0, rows, paper = json.loads(path.read_text())
        return basis0, [[Fraction(x) for x in row] for row in rows], paper
    basis0, _, m = delta_matrix(Flavor(flavor), order)
    paper = None
    if order == 2:
        paper = (manifold_order2_cocycle() if flavor == "manifold" else knot_order2_cocycle()).to_json_obj()
    ref = [g.to_json_obj() for g in basis0], m.entries, paper
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps([ref[0], [[str(x) for x in row] for row in m.entries], paper]))
    tmp.replace(path)
    return ref


def _group(items, key) -> dict:
    out: dict = {}
    for x in items:
        out.setdefault(key(x), []).append(x)
    return out


def _check(records: list[Record]) -> None:
    """Fill ``Record.error``: per-round checks, then byte identity of
    every command against the first run with the same arguments.

    Once a command's output has passed the per-round checks, later runs
    with the same arguments are held to byte identity alone: the same
    bytes would pass the same checks, which take about 1.3 s for a
    ``cocycles`` output at order 3.
    """
    passed: set[tuple] = set()
    for recs in _group([r for r in records if r.timed], lambda r: r.round).values():
        todo = [r for r in recs if r.cmd.args not in passed]
        errors = workloads.check_round(
            [r.cmd for r in todo], {r.cmd.key: (r.outcome.code, r.outcome.stdout) for r in todo}, cocycle_ref
        )
        for r in todo:
            r.error = r.error or errors.get(r.cmd.key)
        passed.update(r.cmd.args for r in todo if not r.error)
    first: dict[tuple, str] = {}
    for rec in records:
        if rec.outcome.code == 0:
            ref_out = first.setdefault(rec.cmd.args, rec.outcome.stdout)
            rec.error = rec.error or checks.check_same_output(ref_out, rec.outcome.stdout)


def _rounds_left(spent: float, done: int, seconds: float, minimum: int) -> bool:
    return done < minimum or spent + spent / done <= seconds


def run_plain(workload: str, seed: int, seconds: float, runner: Runner):
    """Rounds of fresh CLI processes, with SETUP_PER_ROUND fresh
    ``graphflow --version`` and ``bench/reference.py`` runs spread over
    each round; returns the records of the commands and the outcomes of
    the ``--version`` and of the reference runs.  The first ``--version``
    run, which writes the bytecode cache, is listed but not timed."""
    rng = random.Random(seed)
    records: list[Record] = []
    version = [runner.cli(["--version"], runner.work / "setup")]
    ref: list[Outcome] = []
    spent, n = 0.0, 0
    while _rounds_left(spent, n, seconds, MIN_ROUNDS):
        cmds = workloads.plan(workload, rng.randrange(1, 2**31))
        setup_at = {i * len(cmds) // SETUP_PER_ROUND for i in range(SETUP_PER_ROUND)}
        for i, cmd in enumerate(cmds):
            if i in setup_at:
                version.append(runner.cli(["--version"], runner.work / "setup"))
                ref.append(runner.run([sys.executable, str(BENCH / "reference.py")], runner.work / "setup"))
            out = runner.cli(cmd.args, runner.work / f"round-{n}" / cmd.cache)
            records.append(Record(n, cmd, out))
            spent += out.wall
        n += 1
    if len({r.cmd.args for r in records}) == len(records):
        # no command repeated its arguments: rerun the quickest for byte identity
        cmd = min(records, key=lambda r: r.outcome.wall).cmd
        records.append(Record(-1, cmd, runner.cli(cmd.args, runner.work / "rerun"), timed=False))
    return records, version, ref


def time_to_sigma(timed: list[Record]) -> float:
    """Projected wall time for each command of a round to reach standard
    error SIGMA_TARGET, summed over the commands.

    The Monte Carlo runs of one job take t(n) = a + b*n seconds for n
    samples, with a and b fit through the median wall times at its two
    sample counts.  Reaching SIGMA_TARGET takes n* = v / SIGMA_TARGET**2
    samples, where v = n * sigma**2 is the variance per sample, the
    median over the job's runs: a batch with an outlying importance
    weight now and then inflates one run's sigma several times over.  The job adds a + b*n*: start-up, validation
    and other fixed costs count once, not scaled with the samples.
    Other commands add their median wall time.
    """
    total = 0.0
    for recs in _group(timed, lambda r: r.cmd.job).values():
        mc = [(res["n_samples"], res["std_error"], r.outcome.wall)
              for r in recs if (res := workloads.mc_result(r.outcome.stdout))]
        sizes = _group(mc, lambda x: x[0])
        if len(sizes) < 2:
            total += statistics.median(r.outcome.wall for r in recs)
            continue
        lo, hi = min(sizes), max(sizes)
        t_lo = statistics.median(w for _, _, w in sizes[lo])
        t_hi = statistics.median(w for _, _, w in sizes[hi])
        b = (t_hi - t_lo) / (hi - lo)
        v = statistics.median(n * sigma**2 for n, sigma, _ in mc)
        total += t_lo - b * lo + b * v / SIGMA_TARGET**2
    return total


def plain_metrics(records: list[Record], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics, and the workload-specific figures behind them."""
    timed = [r for r in records if r.timed]
    by_round = _group(timed, lambda r: r.round).values()
    misses = _group([r for r in timed if not r.cmd.replay], lambda r: r.cmd.key).values()
    metrics = {
        "setup_s": statistics.median(setup),
        "round_s": statistics.median(sum(r.outcome.wall for r in recs) for recs in by_round),
        "cli_miss_s": statistics.fmean(statistics.median(r.outcome.wall for r in recs) for recs in misses),
        "time_to_sigma_s": time_to_sigma(timed),
        "peak_rss_mb": statistics.median(max(r.outcome.rss_mb for r in recs) for recs in by_round),
    }
    figures = {}
    v2 = [r for r in timed if r.cmd.args[1] == "v2"]
    if v2:
        samples = sum((workloads.result_of(r.outcome.stdout) or {}).get("n_samples", 0) for r in v2)
        figures["v2_samples_per_s"] = (samples / sum(r.outcome.wall for r in v2), "1/s")
        figures["v2_time_to_sigma_s"] = (metrics["time_to_sigma_s"], "s")
    if any(r.cmd.args[1] == "cocycles" for r in timed):
        figures["cocycles_s"] = (metrics["round_s"], "s")
    hits = [r.outcome.wall for r in timed if r.cmd.replay]
    if hits:
        figures["cli_hit_s"] = (statistics.median(hits), "s")
    return metrics, figures


def _pair_metrics(cmds, traced: dict, doc: dict, span_list, overhead: float) -> dict:
    values = spans.layer_metrics(spans.SpanTree(span_list))
    values["cli.import_s"] = doc["import_s"]
    values["cli.cache_bytes"] = doc["cache_bytes"]
    largest = [c for c in cmds if c.args[1] == "v2" and c.args[5] == workloads.V2_SAMPLES[-1]]
    sigma = {c.args[3]: (workloads.mc_result(traced[c.key].stdout) or {}).get("std_error") for c in largest}
    for k in workloads.KNOTS:
        values[f"integrals.std_error.{k}"] = sigma.get(k) or 0.0
    values["bench.trace_overhead_s"] = overhead
    return values


def run_traced(workload: str, seed: int, seconds: float, runner: Runner):
    """Pairs of (plain, traced) in-process rounds on one round seed each;
    returns the records and the per-layer values of each pair."""
    rng = random.Random(seed)
    records: list[Record] = []
    per_pair: list[dict] = []
    spent, n = 0.0, 0
    while _rounds_left(spent, n, seconds, 1):
        cmds = workloads.plan(workload, rng.randrange(1, 2**31))
        pair_dir = runner.work / f"pair-{n}"
        plain, _, _ = runner.inprocess(cmds, pair_dir / "plain", trace=False)
        traced, doc, span_list = runner.inprocess(cmds, pair_dir / "traced", trace=True)
        for i, outs in enumerate((plain, traced)):
            records += [Record(2 * n + i, c, outs[c.key]) for c in cmds]
        plain_wall = sum(o.wall for o in plain.values())
        traced_wall = sum(o.wall for o in traced.values())
        spent += plain_wall + traced_wall
        if span_list is not None:
            per_pair.append(_pair_metrics(cmds, traced, doc, span_list, traced_wall - plain_wall))
            shutil.copy(pair_dir / "traced" / "spans.jsonl", WORK / f"spans-{workload}.jsonl")
        n += 1
    return records, per_pair


def provenance() -> dict:
    import numpy

    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: "1" for var in (*THREAD_VARS, "GRAPHFLOW_WORKERS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "graphflow" / "cli.py").is_file():
        print(f"bench: no graphflow sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(work)
        attempted = failed = 0
        if args.trace:
            records, per_pair = run_traced(args.workload, args.seed, args.seconds, runner)
            metrics = {
                m["name"]: statistics.median(p[m["name"]] for p in per_pair) if per_pair else 0.0
                for m in SPEC["per_layer"]
            }
            figures = {}
        else:
            records, version, ref = run_plain(args.workload, args.seed, args.seconds, runner)
            attempted = len(version) + len(ref)
            failed = sum(1 for o in version if o.code != 0 or "version" not in o.stdout)
            failed += sum(1 for o in ref if o.code != 0)
            ref_s = statistics.median(o.wall for o in ref)
            for o in version + [r.outcome for r in records]:
                o.wall *= REF_S / ref_s  # to the speed at which reference.py takes REF_S
            metrics, figures = plain_metrics(records, [o.wall for o in version[1:]])
            figures["reference_s"] = (ref_s, "s")
        _check(records)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [r for r in records if r.error]
    attempted += len(records)
    failed += len(failures)
    for r in failures:
        print(f"bench: FAILED {r.cmd.key} (round {r.round}): {r.error}", file=sys.stderr)
    figures["error_rate"] = (failed / attempted, "1")
    print("bench env " + json.dumps(provenance(), sort_keys=True))
    for name, value in metrics.items():
        print(f"bench {args.workload} {name} = {value:.6g} {UNITS[name]}")
    for name, (value, unit) in figures.items():
        print(f"bench {args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
