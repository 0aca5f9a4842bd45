"""Random text and junk arguments end in a result or a ValueError.

Aim 3 of the roadmap: any input that reaches the library ends in a result
or a typed error, all of them ValueError subclasses, and never in a stray
TypeError, a RecursionError or a call that does not end.  The four text
readers get random strings built from their own symbols and junk, and
realize_expr gets junk positions.  Each call runs under a timer, so one
that does not end fails the test instead of hanging it.  The seeds are
fixed; the file takes about 2 s.
"""

import math
import random
import signal
from fractions import Fraction

import pytest

import bruteforce as bf
from vclabels.labelcalc import parse_label
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
