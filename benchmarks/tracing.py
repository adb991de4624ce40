"""Span tracing around pktilt's layer entry points, from outside the package.

Tracer.install() replaces each entry point, at the name each caller looks it
up by (a module attribute or a class attribute), with a wrapper that records
a span: name, start, end, parent span, op id and the error type if it
raised. Spans stay in memory until the run ends. Self time is a span's
duration minus the time covered by its child spans. Wrappers record nothing
outside an op, so harness checks that call pktilt leave no spans.
uninstall() puts the original objects back.
"""

from __future__ import annotations

import collections
import functools
import gzip
import json
import time
import weakref

NAME, START, END, PARENT, OP, CHILD, ERROR = range(7)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _rows_done(tr, args, kwargs, out):
    memo, n_top = args[0], _arg(args, kwargs, 1, "n_top")
    if n_top > tr.memo_top.get(memo, 0):
        tr.counts["eppf.triangle_cells"] += n_top * (n_top + 1) // 2
        tr.memo_top[memo] = n_top


def _partition_done(tr, args, kwargs, out):
    tr.counts["sampler.replicates"] += 1
    tr.counts["sampler.steps"] += _arg(args, kwargs, 0, "n") - 1


def _tempered_done(tr, args, kwargs, out):
    size = _arg(args, kwargs, 2, "size")
    tr.counts["tempered_stable.draws"] += 1 if size is None else int(size)
    if _arg(args, kwargs, 3, "return_stats", False):
        stats = out[1]
        tr.counts["tempered_stable.proposals"] += stats["proposed"]
        tr.counts["tempered_stable.accepted"] += stats["accepted"]


def entry_points(pk):
    """(owner, attribute, span name, after-hook) for every wrapped entry point.

    Span names start with their layer. eppf.point covers the per-cell route
    (log_eta, log_vnk, log_eppf, predictive); the CLI imports log_vnk lazily
    from pktilt.eppf, so that module attribute is the name it looks up.
    """
    eppf, blocks, sampler, cli, oracle = pk.eppf, pk.blocks, pk.sampler, pk.cli, pk.oracle
    return [
        (eppf, "integrate_decaying", "specfun.quad", None),
        (cli, "integrate_decaying", "specfun.quad", None),
        (eppf, "upper_incomplete_gamma", "specfun.gamma_inc", None),
        (eppf.EtaMemo, "ensure_rows", "eppf.ensure_rows", _rows_done),
        (eppf, "log_eta", "eppf.point", None),
        (eppf, "log_vnk", "eppf.point", None),
        (cli, "log_eppf", "eppf.point", None),
        (oracle, "log_eppf", "eppf.point", None),
        (cli, "predictive", "eppf.point", None),
        (blocks, "stirling_table", "blocks.stirling", None),
        (pk, "blocks_pmf", "blocks.pmf", None),
        (cli, "blocks_pmf", "blocks.pmf", None),
        (sampler, "blocks_pmf", "blocks.pmf", None),
        (cli, "diversity_density", "blocks.density", None),
        (pk, "sample_tempered", "tempered_stable.sample", _tempered_done),
        (pk, "monte_carlo_blocks", "sampler.mc", None),
        (cli, "monte_carlo_blocks", "sampler.mc", None),
        (pk, "empirical_diversity", "sampler.emp", None),
        (sampler, "sample_partition", "sampler.partition", _partition_done),
        (cli, "sample_partition", "sampler.partition", _partition_done),
        (cli, "exact_blocks_pmf", "oracle.enum", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    def __init__(self, pk):
        self.pk = pk
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.memo_top: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.missing: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._memos: list = []
        self._saved: list[tuple[object, str, object]] = []
        self._fallbacks_at_start = 0

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for owner, attr, name, after in entry_points(self.pk):
            if attr not in vars(owner):
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._patch(owner, attr, self._wrap(name, vars(owner)[attr], after))
        memo_cls = self.pk.eppf.EtaMemo
        init = memo_cls.__init__

        def tracked_init(memo, *args, **kwargs):
            init(memo, *args, **kwargs)
            if self.op is not None:
                self._memos.append(memo)

        self._patch(memo_cls, "__init__", functools.wraps(init)(tracked_init))
        self._fallbacks_at_start = self._fallbacks()

    def uninstall(self) -> None:
        self.counts["eppf.closed_form_fallbacks"] += self._fallbacks() - self._fallbacks_at_start
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _fallbacks(self) -> int:
        # a module-level counter today; reads 0 once it is gone
        counter = getattr(self.pk.eppf, "closed_form_fallbacks", None)
        return getattr(counter, "count", 0)

    def _wrap(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack, spans = tracer._stack, tracer.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec[START], rec[END] = t0, t1
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += t1 - t0
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    # -- ops ----------------------------------------------------------------

    def begin(self, op_id: int) -> None:
        self.op = op_id

    def end(self) -> None:
        self.op = None
        self.counts["eppf.quadrature_cells"] += sum(
            getattr(m, "quadrature_cells", 0) for m in self._memos
        )
        self._memos.clear()

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "self_s": s[END] - s[START] - s[CHILD],
                    "error": s[ERROR],
                }) + "\n")


def _outermost(spans, prefix):
    """Spans named with prefix whose ancestors carry no span with that prefix."""
    out = []
    for s in spans:
        if not s[NAME].startswith(prefix):
            continue
        p = s[PARENT]
        while p >= 0 and not spans[p][NAME].startswith(prefix):
            p = spans[p][PARENT]
        if p < 0:
            out.append(s)
    return out


def layer_metrics(tr: Tracer, op_s: float, overhead: float,
                  out_bytes: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit). op_s is the summed op
    time of the traced pass, overhead its ratio to the untraced pass over the
    same ops, minus one; out_bytes is what the CLI wrote in the traced pass."""
    spans = tr.spans
    c = tr.counts
    by_name = collections.defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def selfs(*names):
        return sum(s[END] - s[START] - s[CHILD] for n in names for s in by_name[n])

    def total(prefix):
        return sum(s[END] - s[START] for s in _outermost(spans, prefix))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    quad = by_name["specfun.quad"]
    rows_total = total("eppf.ensure_rows")
    ts_self = selfs("tempered_stable.sample")
    sampler_self = selfs("sampler.mc", "sampler.emp", "sampler.partition")
    return {
        "specfun.quad.calls": (len(quad), "count"),
        "specfun.quad.self_s": (selfs("specfun.quad"), "s"),
        "specfun.quad.mean_ms": (ratio(1e3 * total("specfun.quad"), len(quad)), "ms"),
        "specfun.gamma_inc.calls": (len(by_name["specfun.gamma_inc"]), "count"),
        "specfun.gamma_inc.self_s": (selfs("specfun.gamma_inc"), "s"),
        "eppf.ensure_rows.calls": (len(by_name["eppf.ensure_rows"]), "count"),
        "eppf.ensure_rows.total_s": (rows_total, "s"),
        "eppf.ensure_rows.self_s": (selfs("eppf.ensure_rows"), "s"),
        "eppf.triangle_cells": (c["eppf.triangle_cells"], "count"),
        "eppf.quadrature_cells": (c["eppf.quadrature_cells"], "count"),
        "eppf.cells_per_s": (ratio(c["eppf.triangle_cells"], rows_total), "1/s"),
        "eppf.point.calls": (len(by_name["eppf.point"]), "count"),
        "eppf.point.total_s": (total("eppf.point"), "s"),
        "eppf.closed_form_fallbacks": (c["eppf.closed_form_fallbacks"], "count"),
        "blocks.stirling.calls": (len(by_name["blocks.stirling"]), "count"),
        "blocks.stirling.self_s": (selfs("blocks.stirling"), "s"),
        "blocks.pmf.self_s": (selfs("blocks.pmf"), "s"),
        "blocks.density.points": (len(by_name["blocks.density"]), "count"),
        "blocks.density.self_s": (selfs("blocks.density"), "s"),
        "blocks.density.gaps": (
            sum(s[ERROR] == "CancellationError" for s in by_name["blocks.density"]), "count"),
        "tempered_stable.draws": (c["tempered_stable.draws"], "count"),
        "tempered_stable.proposals": (c["tempered_stable.proposals"], "count"),
        "tempered_stable.acceptance": (
            ratio(c["tempered_stable.accepted"], c["tempered_stable.proposals"]), "frac"),
        "tempered_stable.self_s": (ts_self, "s"),
        "tempered_stable.draws_per_s": (ratio(c["tempered_stable.draws"], ts_self), "1/s"),
        "sampler.replicates": (c["sampler.replicates"], "count"),
        "sampler.steps": (c["sampler.steps"], "count"),
        "sampler.self_s": (sampler_self, "s"),
        "sampler.steps_per_s": (ratio(c["sampler.steps"], sampler_self), "1/s"),
        "sampler.replicates_per_s": (ratio(c["sampler.replicates"], sampler_self), "1/s"),
        "oracle.enum.calls": (len(by_name["oracle.enum"]), "count"),
        "oracle.enum.total_s": (total("oracle.enum"), "s"),
        "cli.requests": (len(by_name["cli.main"]), "count"),
        "cli.self_s": (selfs("cli.main"), "s"),
        "cli.out_bytes": (out_bytes, "bytes"),
        "trace.spans": (len(spans), "count"),
        "trace.op_s": (op_s, "s"),
        "trace.overhead_frac": (overhead, "frac"),
    }


def layer_shares(tr: Tracer, op_s: float) -> dict[str, float]:
    """Self time of each layer as a share of traced op time; 'harness' is op
    time outside every span (argument set-up and the harness's own calls)."""
    shares = collections.Counter()
    top = 0.0
    for s in tr.spans:
        dur = s[END] - s[START]
        shares[s[NAME].split(".")[0]] += dur - s[CHILD]
        if s[PARENT] < 0:
            top += dur
    shares["harness"] = op_s - top
    return {k: (v / op_s if op_s > 0 else 0.0) for k, v in sorted(shares.items())}
