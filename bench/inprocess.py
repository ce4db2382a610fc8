"""Run one round of a workload in this interpreter, through ``cli.main``.

Usage: python3 bench/inprocess.py PLAN.json OUT.json [SPANS.jsonl]

PLAN.json holds the round's commands and cache directories.  With
SPANS.jsonl given, the span wrappers are installed around every
graphflow layer and the spans are written there when the round ends.
The benchmark starts this script in a fresh interpreter for each round,
so the in-process memos (``enumerate_graphs``' lru_cache and the
projection memo) start empty, as they do for a CLI command.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import time
from pathlib import Path

import spans

MODULES = ("cli", "curves", "diagrams", "forms", "graphs", "integrals", "solver")


def _invoke(main, args) -> int:
    import click

    try:
        main.main(args=list(args), prog_name="graphflow", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        return exc.exit_code
    return 0


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) if path.exists() else 0


def main(plan_path: str, out_path: str, spans_path: str | None = None) -> None:
    plan = json.loads(Path(plan_path).read_text())
    t0 = time.perf_counter()
    gf = {name: importlib.import_module(f"graphflow.{name}") for name in MODULES}
    import_s = time.perf_counter() - t0
    tracer = spans.Tracer() if spans_path else None
    results = []
    with spans.installed(tracer, gf) if tracer else contextlib.nullcontext():
        for cmd in plan["commands"]:
            os.environ["GRAPHFLOW_CACHE_DIR"] = cmd["cache_dir"]
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with tracer.span("cli.command") if tracer else contextlib.nullcontext():
                    code = _invoke(gf["cli"].main, cmd["args"])
            wall = time.perf_counter() - start
            results.append({"key": cmd["key"], "code": code, "stdout": out.getvalue(), "wall": wall})
    if tracer:
        tracer.write_jsonl(spans_path)
    caches = {c["cache_dir"] for c in plan["commands"]}
    doc = {
        "graphflow_file": gf["cli"].__file__,
        "import_s": import_s,
        "cache_bytes": sum(_tree_bytes(Path(c)) for c in caches),
        "results": results,
    }
    Path(out_path).write_text(json.dumps(doc))


if __name__ == "__main__":
    main(*sys.argv[1:])
