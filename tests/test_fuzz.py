"""Random text and junk arguments end in a result or a ValueError.

Aim 3 of the roadmap: any input that reaches the library ends in a result
or a typed error, all of them ValueError subclasses, and never in a stray
TypeError, a RecursionError or a call that does not end.  Every public
callable gets a table of junk arguments at each arity its signature
allows, the four text readers get random strings built from their own
symbols and junk, and realize_expr gets junk positions.  Each call runs
under a timer, so one that does not end fails the test instead of hanging
it.  The seeds are fixed; the file takes about 2 s.
"""

import inspect
import itertools
import math
import random
import signal
import types
from fractions import Fraction

import pytest

import bruteforce as bf
import vclabels
from vclabels.harness import build_ict_tensor
from vclabels.labelcalc import avoid_family, parse_label
from vclabels.labelcompiler import parse_expr, realize_expr, to_interval_expr
from vclabels.orderformula import parse_formula
from vclabels.setsystem import SetSystem

CALL_SECONDS = 2.0
TEXTS_PER_READER = 20000

JUNK = [" ", "\t", "\n", "\r\n", "\x00", "é", "€", "💥", "[", "]", "-", "+", "9", "0x", "∞"]
READER_SYMBOLS = {
    parse_formula: [
        "x", "y", "y1", "y2", "y10", "y0", "<", "<=", "=", "!=", ">=", ">",
        "!", "(", ")", "&", "|", "x=x", "x!=x", " ", "x<y1", " & ", " | ",
    ],
    parse_expr: [
        "{", "}", "(", ")", ",", "-inf", "inf", "\\", " u ", "u", "a", "b", "c", "z", "aa",
        "\\{", "{}", "{a}", "{b,c}", "(-inf,a)", "(a,b)", "(b,inf)", "\\{b}",
    ],
    SetSystem.from_text: ["ground ", "ground", "0", "1", "2", "01", "\n", "#", " ", "00\n", "11\n"],
    parse_label: ["0", "1", "01", "10"],
}


class _CallTimedOut(BaseException):
    """Raised by the timer; a BaseException, so no library handler takes it."""


def _expire(signum, frame):
    raise _CallTimedOut


@pytest.fixture
def outcome():
    """Call with a timer, and return "result" or "error" (a ValueError).

    Any other exception, or a call still running after CALL_SECONDS, fails
    the test and names the call.
    """
    previous = signal.signal(signal.SIGALRM, _expire)

    def call(function, *args):
        signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
        try:
            result = function(*args)
        except ValueError:
            return "error", None
        except (Exception, _CallTimedOut) as caught:
            pytest.fail(f"{function.__qualname__}{args!r} raised {type(caught).__name__}: {caught}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return "result", result

    yield call
    signal.signal(signal.SIGALRM, previous)


def _random_text(rng, symbols):
    pieces = symbols * 3 + JUNK  # mostly the reader's own symbols
    return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 24)))


@pytest.mark.parametrize("reader", list(READER_SYMBOLS), ids=lambda reader: reader.__qualname__)
def test_readers_end_in_a_result_or_a_value_error(reader, outcome):
    rng = random.Random(f"fuzz {reader.__qualname__}")
    seen = set()
    for _ in range(TEXTS_PER_READER):
        seen.add(outcome(reader, _random_text(rng, READER_SYMBOLS[reader]))[0])
    # The texts reach past the first check: each reader both reads some
    # and refuses some.
    assert seen == {"result", "error"}


REAL_POSITIONS = [
    math.inf, -math.inf, True, False, 10**400, -(10**400), Fraction(7, 3), Fraction(-1, 2),
    0.5, *range(-3, 12),
]
JUNK_POSITIONS = [None, "1", "", math.nan, 1j, [1], (), *REAL_POSITIONS]


def test_realize_expr_takes_junk_positions(outcome):
    rng = random.Random("fuzz realize_expr")
    seen = set()
    for _ in range(10000):
        eta = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 5)))
        count = max(0, len(eta) - 1 + rng.choice((0, 0, 0, -1, 1)))
        if rng.random() < 0.5:  # real positions in order, equal ones apart
            positions = tuple(sorted(rng.sample(REAL_POSITIONS, count)))
        else:
            positions = tuple(rng.choice(JUNK_POSITIONS) for _ in range(count))
        m = rng.randint(0, 6)
        kind, mask = outcome(realize_expr, to_interval_expr(eta), positions, m)
        seen.add(kind)
        if kind == "result":
            # A result is the one the segment scan gives.
            assert mask == bf.realize_segments(bf.expr_segments(eta), positions, m)
    assert seen == {"result", "error"}


# Values of every kind the API takes, each wrong for most parameters: ints
# below, at and far above the caps, other numbers, strings, bytes, masks
# and labels (some of them not bits), containers, and one value of each of
# the library's own kinds.
JUNK_ARGS = [
    None, True, 0, 1, 3, -1, 2**70, 1.5, math.nan, "", "01", "x<y1", b"\x01", [], [1, 0],
    (), (1,), (1, 0, 1), (0, 2), {}, object(), avoid_family(3, (1, 0)), parse_formula("x<y1"),
    to_interval_expr((1, 0, 1)), build_ict_tensor(1, 2),
]
# Calls of three or more arguments are a fixed sample of the JUNK_ARGS tuples.
SAMPLED_CALLS = 400


def _entry_points():
    """The public callables: every name of vclabels.__all__ but the modules,
    the type aliases Label and Mask, and the error classes, which take any
    arguments."""
    for name in vclabels.__all__:
        value = getattr(vclabels, name)
        if isinstance(value, (types.ModuleType, types.GenericAlias, types.UnionType)):
            continue
        if isinstance(value, type) and issubclass(value, BaseException):
            continue
        yield name, value


def _arities(function):
    """The numbers of positional arguments the signature takes."""
    params = inspect.signature(function).parameters.values()
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    required = sum(p.default is p.empty for p in positional)
    return range(required, len(positional) + 1)


def test_the_table_covers_the_entry_points():
    names = dict(_entry_points())
    for name in ("Compare", "phi_bound", "avoid_family", "SetSystem", "classify", "realize_expr"):
        assert name in names
    assert {n for n in names if n[0].islower()} == {
        n for n in vclabels.__all__ if inspect.isfunction(getattr(vclabels, n))
    }


@pytest.mark.parametrize("name", [name for name, _ in _entry_points()])
def test_every_entry_point_takes_junk_arguments(name, outcome):
    function, rng = getattr(vclabels, name), random.Random(f"fuzz table {name}")
    for arity in _arities(function):
        if arity <= 2:
            calls = itertools.product(JUNK_ARGS, repeat=arity)
        else:
            calls = ([rng.choice(JUNK_ARGS) for _ in range(arity)] for _ in range(SAMPLED_CALLS))
        for args in calls:
            outcome(function, *args)
