"""A ``now()`` that moves only when a test moves it.

The server, the trunk gateway (and the links and registry it builds)
read every deadline through an injected clock.  Handing them a
:class:`ManualClock` lets a test put time on either side of a keepalive,
redial, TTL or stall deadline without sleeping.
"""


class ManualClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.time = start

    def __call__(self) -> float:
        return self.time

    def advance(self, seconds: float) -> None:
        self.time += seconds
