"""Run one ``vclabels`` CLI job with a span around each library call it makes.

usage: python perfbench/traced_cli.py SPANS_FILE ARG...

Wraps every ``vclabels`` function that the CLI module refers to, and
``SetSystem``'s text I/O, then runs the CLI's own ``main(ARG...)``.  The
job's root span starts before ``vclabels`` is imported.  Stdout is the
CLI's own and must equal that of ``python -m vclabels ARG...``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

from spans import Tracer, qualified_name  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    root = tracer.job_span(0, START)
    import vclabels.cli as cli
    from vclabels.setsystem import SetSystem

    for name, value in list(vars(cli).items()):
        module = getattr(value, "__module__", None) or ""
        if (
            callable(value)
            and not isinstance(value, type)
            and module.startswith("vclabels.")
            and module != cli.__name__
        ):
            setattr(cli, name, tracer.wrap(value, qualified_name(value)))
    read = SetSystem.from_text.__func__
    SetSystem.from_text = classmethod(tracer.wrap(read, qualified_name(read)))
    SetSystem.to_text = tracer.wrap(SetSystem.to_text, qualified_name(SetSystem.to_text))

    code = cli.main(argv)
    sys.stdout.flush()
    tracer.end_job(root)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
