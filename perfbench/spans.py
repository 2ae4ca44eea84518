"""Spans recorded by the benchmark around each public call it makes.

A span is ``[name, start_ns, end_ns, parent id, operation id, ok]``. Spans
are kept in memory while a chunk of operations runs. After the chunk,
outside any timed region, ``flush`` checks them, adds them to per-name
totals and appends them to a gzip TSV file.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

from inputs import BenchmarkFailure

SPAN_LOG_HEADER = "op\tspan\tparent\tname\tstart_ns\tend_ns\tok\n"


class NullTracer:
    """Records nothing; used where a code path is shared with the traced run."""

    def begin(self, name, parent, op_id):
        return None

    def end(self, span_id) -> None:
        pass

    def call(self, name, parent, op_id, fn, *args):
        return fn(*args)

    def flush(self) -> None:
        pass


@dataclass
class SpanTotals:
    calls: int = 0
    self_ns: int = 0

    @property
    def mean_self_ns(self) -> float:
        return self.self_ns / self.calls if self.calls else 0.0


class Tracer:
    """Span recorder, with per-name totals of calls and self time."""

    def __init__(self, log_path: Path):
        self.totals: dict[str, SpanTotals] = {}
        self._spans: list[list] = []
        self._first_id = 0
        self._log = gzip.open(log_path, "wt", compresslevel=1, encoding="utf-8")
        self._log.write(SPAN_LOG_HEADER)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._log.close()

    def begin(self, name: str, parent: int | None, op_id) -> int:
        span = [name, 0, 0, parent, op_id, True]
        self._spans.append(span)
        span[1] = perf_counter_ns()
        return self._first_id + len(self._spans) - 1

    def end(self, span_id: int) -> None:
        self._spans[span_id - self._first_id][2] = perf_counter_ns()

    def call(self, name: str, parent: int, op_id, fn, *args):
        span = [name, 0, 0, parent, op_id, True]
        self._spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args)
        except Exception:
            span[5] = False
            raise
        finally:
            span[2] = perf_counter_ns()

    def add(self, name: str, start: int, end: int, parent: int | None, op_id,
            ok: bool = True) -> int:
        """Record a span measured elsewhere, such as in a child process."""
        self._spans.append([name, start, end, parent, op_id, ok])
        return self._first_id + len(self._spans) - 1

    def flush(self) -> None:
        """Check the buffered spans, total them and write them out.

        Children must lie inside their parent and not overlap each other,
        so for every operation the self times of its spans add up to the
        duration of its root span.
        """
        spans, first = self._spans, self._first_id
        children: dict[int, list[list]] = {}
        for span in spans:
            if span[3] is not None:
                if not first <= span[3] < first + len(spans):
                    raise BenchmarkFailure(f"span {span[0]} has a parent outside its chunk")
                children.setdefault(span[3], []).append(span)

        self_by_op: dict = {}
        root_by_op: dict = {}
        lines = []
        for span_id, (name, start, end, parent, op_id, ok) in enumerate(spans, first):
            cursor = start
            covered = 0
            for child in sorted(children.get(span_id, ()), key=lambda s: s[1]):
                if child[1] < cursor or child[2] > end or child[4] != op_id:
                    raise BenchmarkFailure(
                        f"span {child[0]} of op {child[4]} overlaps a sibling "
                        f"or lies outside its parent {name}"
                    )
                covered += child[2] - child[1]
                cursor = child[2]
            if end < start:
                raise BenchmarkFailure(f"span {name} of op {op_id} ends before it starts")
            self_ns = end - start - covered
            totals = self.totals.setdefault(name, SpanTotals())
            totals.calls += 1
            totals.self_ns += self_ns
            self_by_op[op_id] = self_by_op.get(op_id, 0) + self_ns
            if parent is None:
                root_by_op[op_id] = end - start
            lines.append(f"{op_id}\t{span_id}\t{parent}\t{name}\t{start}\t{end}\t{int(ok)}\n")

        if self_by_op.keys() != root_by_op.keys():
            raise BenchmarkFailure("an operation has spans but no root span")
        for op_id, duration in root_by_op.items():
            if self_by_op[op_id] != duration:
                raise BenchmarkFailure(
                    f"op {op_id}: self times sum to {self_by_op[op_id]} ns, "
                    f"its span lasts {duration} ns"
                )
        self._log.writelines(lines)
        self._spans = []
        self._first_id += len(spans)

    def mean_self_us(self, name: str) -> float:
        return self.totals.get(name, SpanTotals()).mean_self_ns / 1e3

    def calls(self, name: str) -> int:
        return self.totals.get(name, SpanTotals()).calls
