"""Spans around calls into each modelsets module, recorded from outside it.

A :class:`Tracer` replaces public functions at the module attributes their
callers look up (``cli.generate``, ``correlations.freq_exact``,
``spectra.deck_functions``, ...) with wrappers that record a span: name,
start, end, parent span and the operation it belongs to, plus a small note
taken from the arguments or the result.  Spans stay in memory and are
written out once, when the run ends.  Leaving the context restores every
attribute, so untraced passes run the program unmodified.

Calls made inside the correlation pool's worker processes are not seen: the
workers run the wrappers on a forked copy of the tracer whose spans are
lost.  While the pool exists, that time shows up as self time of
``correlations.correlation_measure``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from modelsets import cli, correlations, homometry, pointsets, reconstruct, spectra


def _targets():
    """(owner, attribute, span name, note(args, result) or None)."""
    return [
        (cli, "main", "cli.main", None),
        (cli, "generate", "pointsets.generate", lambda a, out: len(out)),
        (cli, "save_pointset", "pointsets.save_pointset", None),
        (pointsets, "load_pointset", "pointsets.load_pointset", None),
        (cli, "freq_empirical", "correlations.freq_empirical", None),
        (cli, "correlation_measure", "correlations.correlation_measure",
         lambda a, out: (len(out.entries), out.order)),
        (cli, "correlations_equal", "correlations.correlations_equal", None),
        (correlations.CorrelationMeasure, "to_csv", "correlations.write", None),
        (correlations, "support_differences", "correlations.support_differences",
         lambda a, out: len(out)),
        (correlations, "freq_exact", "correlations.freq_exact", None),
        (correlations, "window_intersect", "schemes.window_intersect", None),
        (correlations, "window_measure", "schemes.window_measure", None),
        (spectra, "diffraction", "spectra.diffraction", lambda a, out: len(out)),
        (spectra, "window_ft", "spectra.window_ft", None),
        (spectra.Spectrum, "to_csv", "spectra.write", None),
        (spectra.Spectrum, "to_svg", "spectra.write", None),
        (spectra, "sample_window", "spectra.sample_window", lambda a, out: a[1]),
        (spectra, "deck_functions", "spectra.deck_functions", lambda a, out: a[1]),
        (reconstruct, "roundtrip", "reconstruct.roundtrip",
         lambda a, out: (a[1], out.unknown_count, out.uncertain_cells)),
        (reconstruct, "phase_quotient", "reconstruct.phase_quotient", lambda a, out: a[0].M),
        (reconstruct, "propagate_phase", "reconstruct.propagate_phase",
         lambda a, out: a[1].M),
        (reconstruct, "align_up_to_translation", "reconstruct.align",
         lambda a, out: len(a[0])),
        (homometry, "cyclotomic_pair", "homometry.cyclotomic_pair", None),
        (homometry, "pattern_table", "homometry.pattern_table", None),
        (homometry, "tables_equal", "homometry.tables_equal", None),
        (homometry, "rigid_equivalent", "homometry.rigid_equivalent", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent id, op, note]
        self.op = ""                   # the operation that spans are attributed to
        self._stack = [-1]
        self._saved = []

    def _wrap(self, owner, attr, name, note):
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, out)
            return out

        traced.__wrapped__ = fn
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    @contextmanager
    def installed(self):
        try:
            for target in _targets():
                self._wrap(*target)
            yield self
        finally:
            while self._saved:
                owner, attr, fn = self._saved.pop()
                setattr(owner, attr, fn)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# span name -> (summed-duration metric, call-count metric)
_TIMED = {
    "pointsets.generate": ("pointsets.generate_s", "pointsets.generate_calls"),
    "pointsets.save_pointset": ("pointsets.save_pointset_s", None),
    "pointsets.load_pointset": ("pointsets.load_pointset_s", None),
    "correlations.freq_empirical": ("correlations.freq_empirical_s",
                                    "correlations.freq_empirical_calls"),
    "correlations.support_differences": ("correlations.support_differences_s", None),
    "correlations.freq_exact": ("correlations.freq_exact_s", "correlations.freq_exact_calls"),
    "schemes.window_intersect": ("schemes.window_intersect_s", "schemes.window_intersect_calls"),
    "schemes.window_measure": (None, "schemes.window_measure_calls"),
    "spectra.diffraction": ("spectra.diffraction_s", None),
    "spectra.window_ft": (None, "spectra.window_ft_calls"),
    "spectra.write": ("spectra.write_s", None),
    "homometry.pattern_table": ("homometry.pattern_table_s", None),
    "homometry.rigid_equivalent": ("homometry.rigid_equivalent_s", None),
}

# span name -> duration metric reported per grid size M
_PER_GRID = {
    "spectra.sample_window": "spectra.sample_window_s",
    "spectra.deck_functions": "spectra.deck_functions_s",
    "reconstruct.phase_quotient": "reconstruct.phase_quotient_s",
    "reconstruct.propagate_phase": "reconstruct.propagate_phase_s",
    "reconstruct.align": "reconstruct.align_s",
}


def layer_metrics(spans: list[list], first: int, last: int) -> dict:
    """Per-layer totals over ``spans[first:last]``, one pass.

    Self time is a span's duration minus the time its child spans cover;
    calls are synchronous, so children never overlap.
    """
    covered = defaultdict(float)
    for i in range(first, last):
        name, start, end, parent = spans[i][:4]
        if parent >= 0:
            covered[parent] += end - start
    m = defaultdict(float)
    base_of, measures = {}, []
    for i in range(first, last):
        name, start, end, parent, _, note = spans[i]
        dur = end - start
        own = dur - covered[i]
        if name in _TIMED:
            total, calls = _TIMED[name]
            if total:
                m[total] += dur
            if calls:
                m[calls] += 1
        if name == "cli.main":
            m["cli.self_s"] += own
        if note is None:    # no note, or the call raised
            continue
        if name in _PER_GRID:
            m[f"{_PER_GRID[name]}.M{note}"] += dur
        elif name == "pointsets.generate":
            m["pointsets.points"] += note
        elif name == "correlations.support_differences":
            m["correlations.base_size"] += note
            base_of[parent] = note
        elif name == "correlations.correlation_measure":
            m["correlations.correlation_measure_self_s"] += own
            m["correlations.entries"] += note[0]
            measures.append((i, note[1]))
        elif name == "spectra.diffraction":
            m["spectra.peaks"] += note
        elif name == "reconstruct.roundtrip":
            M, unknown, uncertain = note
            m[f"reconstruct.roundtrip_self_s.M{M}"] += own
            m["reconstruct.unknown_count"] += unknown
            m["reconstruct.uncertain_cells"] += uncertain
    # every ordered tuple of the support is evaluated once, in process or in the pool
    tuples = sum(base_of[i] ** (order - 1) for i, order in measures)
    if tuples:
        m["correlations.kept_ratio"] = m["correlations.entries"] / tuples
    if m["spectra.window_ft_calls"]:
        m["spectra.kept_ratio"] = m["spectra.peaks"] / m["spectra.window_ft_calls"]
    return dict(m)
