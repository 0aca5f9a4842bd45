"""One lib-batch pass: a long-lived process calling the ``vclabels`` API.

usage: python perfbench/batch.py TASKS_FILE RESULT_FILE [SPANS_FILE]

Reads the pass's tasks (``workload_gen.batch_pass``) and runs them one
after another.  Only the API calls of a task are timed: its input objects
are built just before and its result is checked just after.  The
calibration loop runs after every SPEED_EVERY tasks, which gives each task
the factor that scales its time to the nominal machine speed.  With
SPANS_FILE every API call goes through a ``spans.Tracer`` wrapper and the
spans are written there at the end.  RESULT_FILE receives the raw times,
their factors and the failures as JSON.
"""

from __future__ import annotations

import json
import sys
import time

import output_check
import vclabels
import workload_gen as gen
from calibration import Speed
from spans import Tracer, qualified_name

SPEED_EVERY = 100

API = (
    "avoid_family", "classify", "is_characterized_by", "extend_avoiding",
    "to_interval_expr", "format_expr", "parse_expr", "from_interval_expr",
    "compile_label", "label_of_formula", "parse_formula", "verify_pair_xor",
)


def _bits(text: str) -> tuple:
    return tuple(int(ch) for ch in text)


def _text(bits) -> str:
    return "".join(map(str, bits))


def _family(m: int, lines) -> vclabels.SetSystem:
    return vclabels.SetSystem.from_masks(m, (_bits(line) for line in lines))


def _inputs(task: list):
    """Library-side arguments of a task."""
    kind, args = task[0], task[1:]
    if kind in ("classify-cap", "classify"):
        eta, perm = args
        return (_family(len(perm), gen.permuted_lines(eta, perm)),)
    if kind == "avoid":
        return args[0], _bits(args[1])
    if kind == "classify-random":
        return (_family(*args),)
    if kind == "characterized":
        m, eta, drop = args
        lines = gen.avoid_lines(m, eta)
        if drop >= 0:
            del lines[drop]
        return _family(m, lines), _bits(eta)
    if kind == "extend":
        m, region, partial, eta = args
        return m, _bits(region), _bits(partial), _bits(eta)
    if kind in ("expr", "compile"):
        return (_bits(args[0]),)
    if kind == "formula":
        return gen.batch_formula(*args), len(args[0]) - 1
    if kind == "l2":
        return _bits(args[0]), args[1]
    raise ValueError(f"unknown task kind {kind}")


def run_task(api, kind: str, inputs):
    """Make the API calls of one task and return what they return."""
    if kind == "avoid":
        return api["avoid_family"](*inputs)
    if kind in ("classify-cap", "classify", "classify-random"):
        return api["classify"](*inputs)
    if kind == "characterized":
        return api["is_characterized_by"](*inputs)
    if kind == "extend":
        return api["extend_avoiding"](*inputs)
    if kind == "expr":
        text = api["format_expr"](api["to_interval_expr"](*inputs))
        return text, api["from_interval_expr"](api["parse_expr"](text))
    if kind == "compile":
        return api["compile_label"](*inputs)
    if kind == "formula":
        text, arity = inputs
        return api["label_of_formula"](api["parse_formula"](text), arity)
    if kind == "l2":
        return api["verify_pair_xor"](*inputs)
    raise ValueError(f"unknown task kind {kind}")


def plain(kind: str, result):
    """A task's result as the plain data ``output_check`` compares."""
    if kind == "avoid":
        return [_text(mask) for mask in result.members]
    if kind in ("classify-cap", "classify", "classify-random"):
        c = result
        return [c.vc_dimension, c.is_maximum, c.is_maximal, [n for _, n in c.sauer_profile]]
    if kind == "compile":
        return vclabels.format_formula(result)
    if kind in ("extend", "formula"):
        return _text(result)
    if kind == "expr":
        return [result[0], _text(result[1])]
    if kind == "l2":
        return [result.passed, result.family_size, result.expected_size]
    return result


def main() -> int:
    tasks_path, result_path = sys.argv[1], sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    with open(tasks_path, encoding="utf-8") as handle:
        tasks = json.load(handle)
    api = {name: getattr(vclabels, name) for name in API}
    tracer = Tracer() if spans_path else None
    if tracer:
        api = {name: tracer.wrap(fn, qualified_name(fn)) for name, fn in api.items()}

    times, factors, failures = [], [], []
    speed = Speed()
    clock = time.perf_counter
    for job, task in enumerate(tasks):
        args = _inputs(task)
        root = tracer.job_span(job) if tracer else None
        start = clock()
        try:
            result = run_task(api, task[0], args)
        except Exception as exc:  # a task that raises is a failed job
            result = exc
        elapsed = clock() - start
        if tracer:
            tracer.end_job(root)
        times.append(elapsed)
        reason = (
            f"raised {result!r}" if isinstance(result, Exception)
            else output_check.check_task(task, plain(task[0], result))
        )
        if reason:
            failures.append(f"{task}: {reason}")
        if (job + 1) % SPEED_EVERY == 0 or job + 1 == len(tasks):
            factors.extend([speed.factor()] * (job + 1 - len(factors)))
    if tracer:
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"times": times, "factors": factors, "failures": failures}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
