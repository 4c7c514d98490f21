"""A from-scratch discrete-event simulation (DES) kernel.

The paper evaluates the GE scheduler purely in simulation.  ``simpy`` is
not available in this environment, so this subpackage provides an
equivalent substrate: a binary-heap event queue with a deterministic
tie-break (:mod:`repro.sim.events`), a callback-driven simulator engine
(:mod:`repro.sim.engine`), seeded independent random streams
(:mod:`repro.sim.rng`), and a piecewise-constant timeline recorder used
for energy/speed integration (:mod:`repro.sim.timeline`).

The kernel is intentionally small: events can be scheduled, cancelled
and re-prioritized, and runs are bit-for-bit reproducible given a seed.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStreams
from repro.sim.timeline import StepTimeline

__all__ = [
    "Event",
    "EventQueue",
    "RandomStreams",
    "Simulator",
    "StepTimeline",
]
