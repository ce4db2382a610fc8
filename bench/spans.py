"""In-memory spans around the public functions of each graphflow module.

The benchmark installs these wrappers from its own files; graphflow
itself is not changed.  A span is (id, parent id, name, start, end,
counts, error); spans stay in memory until the run writes them out as
JSON lines.  Per-layer metrics are derived from the span tree.

Every name is patched in the namespace where graphflow looks it up at
call time (``solver.delta`` rather than ``graphs.delta``, because
``solver`` imported the name), and the original object is put back when
the ``installed`` context exits.  The span stack assumes one thread,
which holds because the benchmark pins ``GRAPHFLOW_WORKERS=1``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects parent-linked spans for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), self._stack[-1] if self._stack else None, name, 0.0)
        self.spans.append(sp)
        self._stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, kwargs, result)`` fills its counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if count is not None:
                    sp.counts.update(count(args, kwargs, result))
                return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp), sort_keys=True) + "\n")


def read_jsonl(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


# --- patch points ---


def _enumerate_counts(args, kwargs, result):
    degree = kwargs.get("degree", args[2] if len(args) > 2 else None)
    return {"basis0" if degree == 0 else "basis1": len(result)}


def _delta_matrix_counts(args, kwargs, result):
    m = result[2]
    return {"rows": m.rows, "cols": m.cols}


def _kernel_counts(args, kwargs, result):
    m = args[0]
    return {"kernel_dim": len(result), "rank": m.cols - len(result)}


def _points(args, kwargs, result):
    return {"points": result.size // 3}


def _compile_counts(args, kwargs, result):
    return {"assignments": len(args[0].assignments)}


def _batch_counts(args, kwargs, result):
    return {"configs": int(args[2].shape[0])}


def _mc_counts(args, kwargs, result):
    return {"requested": result.n_samples}


def _project_counts(args, kwargs, result):
    return {"crossings": len(result.crossings)}


def patch_points(gf):
    """(owner, attribute, span name, count function) for every wrapper.

    ``gf`` maps module names to the imported graphflow modules.
    """
    cli, curves, forms = gf["cli"], gf["curves"], gf["forms"]
    return [
        (cli, "load_curve", "curves.load", None),
        (curves.KnotCurve, "validate", "curves.validate", None),
        (curves.KnotCurve, "eval", "curves.eval", _points),
        (curves.KnotCurve, "deriv", "curves.deriv", _points),
        (gf["solver"], "enumerate_graphs", "graphs.enumerate", _enumerate_counts),
        (gf["solver"], "delta", "graphs.delta", None),
        (gf["graphs"], "canonicalize", "graphs.canonicalize", None),
        (cli, "delta_matrix", "solver.delta_matrix", _delta_matrix_counts),
        (cli, "kernel_basis", "solver.kernel", _kernel_counts),
        (forms.CompiledIntegrand, "__init__", "forms.compile", _compile_counts),
        (forms.CompiledIntegrand, "evaluate_batch", "forms.evaluate_batch", _batch_counts),
        (cli, "v2_invariant", "integrals.v2", None),
        (gf["integrals"], "a_gamma_mc", "integrals.a_gamma_mc", _mc_counts),
        (cli, "sln_integral", "integrals.sln", None),
        (cli, "linking_integral", "integrals.lk", None),
        (cli, "a2_of_curve", "diagrams.a2", None),
        (gf["diagrams"], "project_to_diagram", "diagrams.project", _project_counts),
        (gf["diagrams"], "a2_oracle", "diagrams.a2_oracle", None),
    ]


def _wrap_cached(tracer: Tracer, cached):
    """``cli._cached`` in a span that records whether compute() ran."""

    @functools.wraps(cached)
    def traced(command, config_fn, cache_dir, no_cache, compute):
        with tracer.span("cli.cached") as sp:
            ran = []

            def counted_compute():
                ran.append(True)
                return compute()

            result = cached(command, config_fn, cache_dir, no_cache, counted_compute)
            sp.counts["miss" if ran else "hit"] = 1
            return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, gf):
    """Install every wrapper; restore the original objects on exit."""
    cli = gf["cli"]
    points = [(owner, attr, tracer.wrap(name, vars(owner)[attr], count))
              for owner, attr, name, count in patch_points(gf)]
    points.append((cli, "_cached", _wrap_cached(tracer, cli._cached)))
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in points]
    try:
        for owner, attr, wrapper in points:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# --- span arithmetic ---


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Queries over one run's spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {sp.id: sp for sp in spans}
        self.children: dict[int, list[Span]] = {sp.id: [] for sp in spans}
        for sp in spans:
            if sp.parent is not None:
                self.children[sp.parent].append(sp)

    def self_time(self, sp: Span, exclude=None) -> float:
        """Duration minus the time covered by child spans.

        With ``exclude`` given, only children with those names are taken
        out (for example enumeration under ``solver.delta_matrix``).
        """
        kids = [c for c in self.children[sp.id] if exclude is None or c.name in exclude]
        return sp.duration - _covered([(c.start, c.end) for c in kids], sp.start, sp.end)

    def _has_ancestor(self, sp: Span, name: str) -> bool:
        p = sp.parent
        while p is not None:
            anc = self.by_id[p]
            if anc.name == name:
                return True
            p = anc.parent
        return False

    def outermost(self, name: str, outside: str | None = None) -> list[Span]:
        """Spans of ``name`` not nested in another span of the same name,
        nor, with ``outside`` given, in a span of that name."""
        return [
            sp
            for sp in self.spans
            if sp.name == name
            and not self._has_ancestor(sp, name)
            and not (outside and self._has_ancestor(sp, outside))
        ]

    def total(self, name: str, outside: str | None = None) -> float:
        return sum(sp.duration for sp in self.outermost(name, outside))

    def total_self(self, name: str, exclude=None) -> float:
        return sum(self.self_time(sp, exclude) for sp in self.outermost(name))

    def count(self, name: str, key: str | None = None, outside: str | None = None) -> int:
        """Number of outermost ``name`` spans, or the sum of one count."""
        spans = self.outermost(name, outside)
        if key is None:
            return len(spans)
        return sum(sp.counts.get(key, 0) for sp in spans)

    def errors(self, name: str, error: str) -> int:
        return sum(1 for sp in self.spans if sp.name == name and sp.error == error)


VALIDATE = "curves.validate"


def layer_metrics(tree: SpanTree) -> dict[str, float]:
    """Per-layer values of one traced round, by metric name.

    Curve evaluation inside ``KnotCurve.validate`` counts only in
    ``curves.validate_s``, not in ``curves.eval_s``, ``curves.deriv_s``
    or ``curves.points``, so that no time is counted twice.
    """
    commands = tree.count("cli.command")
    requested = tree.count("integrals.a_gamma_mc", "requested")
    return {
        "graphs.enumerate_s": tree.total("graphs.enumerate"),
        "graphs.canonicalize_s": tree.total("graphs.canonicalize"),
        "graphs.delta_s": tree.total("graphs.delta"),
        "graphs.basis0": tree.count("graphs.enumerate", "basis0"),
        "graphs.basis1": tree.count("graphs.enumerate", "basis1"),
        "solver.delta_matrix_s": tree.total_self("solver.delta_matrix", {"graphs.enumerate"}),
        "solver.kernel_s": tree.total("solver.kernel"),
        "solver.rows": tree.count("solver.delta_matrix", "rows"),
        "solver.cols": tree.count("solver.delta_matrix", "cols"),
        "solver.rank": tree.count("solver.kernel", "rank"),
        "solver.kernel_dim": tree.count("solver.kernel", "kernel_dim"),
        "curves.eval_s": tree.total("curves.eval", VALIDATE),
        "curves.deriv_s": tree.total("curves.deriv", VALIDATE),
        "curves.points": tree.count("curves.eval", "points", VALIDATE)
        + tree.count("curves.deriv", "points", VALIDATE),
        "curves.load_s": tree.total("curves.load"),
        "curves.validate_s": tree.total("curves.validate"),
        "cli.curve_loads": tree.count("curves.load") / commands if commands else 0.0,
        "forms.compile_s": tree.total("forms.compile"),
        "forms.evaluate_batch_s": tree.total_self("forms.evaluate_batch"),
        "forms.evaluate_batch_calls": tree.count("forms.evaluate_batch"),
        "forms.assignments": tree.count("forms.compile", "assignments"),
        "integrals.a_gamma_mc_s": tree.total("integrals.a_gamma_mc"),
        "integrals.sampler_self_s": tree.total_self("integrals.a_gamma_mc"),
        "integrals.resample_ratio": (
            tree.count("forms.evaluate_batch", "configs") / requested if requested else 0.0
        ),
        "integrals.sln_s": tree.total("integrals.sln"),
        "integrals.lk_s": tree.total("integrals.lk"),
        "diagrams.project_s": tree.total("diagrams.project"),
        "diagrams.project_calls": tree.count("diagrams.project"),
        "diagrams.degenerate": tree.errors("diagrams.project", "DegenerateProjection"),
        "diagrams.crossings": tree.count("diagrams.project", "crossings"),
        "diagrams.a2_oracle_s": tree.total("diagrams.a2_oracle"),
        "cli.cache_hits": tree.count("cli.cached", "hit"),
        "cli.cache_misses": tree.count("cli.cached", "miss"),
    }
