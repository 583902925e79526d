"""Self time: a span's duration minus the spans nested inside it."""

from perfbench.ledger import Ledger


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_charge_self_time():
    clock = FakeClock()
    ledger = Ledger(clock)
    with ledger.span("outer"):
        clock.now += 1.0
        with ledger.span("inner"):
            clock.now += 3.0
        with ledger.span("inner"):
            clock.now += 2.0
        clock.now += 0.5
    assert ledger.self_s["outer"] == 1.5
    assert ledger.self_s["inner"] == 5.0
    assert ledger.attributed_s() == 6.5


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    ledger = Ledger(clock)
    try:
        with ledger.span("layer"):
            clock.now += 2.0
            raise RuntimeError
    except RuntimeError:
        pass
    assert ledger.self_s["layer"] == 2.0
    with ledger.span("next"):
        clock.now += 1.0
    assert ledger.self_s["next"] == 1.0
