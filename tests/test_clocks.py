"""Board clock drift and the beacon correction, on the 12-board machine."""

from spikert.clocks import ClockConfig, MachineClocks
from spikert.machine import load_machine_spec

PERIODS = 1000  # 0.1 s of 100 us timer periods


def edge_spread_us(machine_path, protocol: bool) -> float:
    """The largest difference between any two chips' timer edges over
    ``PERIODS`` periods at 20 ppm board drift."""
    machine = load_machine_spec(machine_path)
    chips = [(x, y) for x in range(machine.width) for y in range(machine.height)]
    clocks = MachineClocks(machine, ClockConfig(drift_bound_ppm=20.0, protocol_enabled=protocol),
                           3, chips, 100.0, 200e6)
    spread = 0.0
    for _ in range(PERIODS):
        edges = [clock.advance_period()[0] for clock in clocks.clocks.values()]
        spread = max(spread, max(edges) - min(edges))
    return spread


def test_beacon_correction_keeps_every_edge_within_two_cycles(machine_path):
    """With the protocol every chip's timer edge stays within two 200 MHz
    cycles (0.01 us) of every other chip's; whole-cycle corrections cost at
    most one cycle each."""
    assert edge_spread_us(machine_path, protocol=True) <= 2 / 200e6 * 1e6


def test_uncorrected_drift_spreads_the_edges(machine_path):
    """Without it 20 ppm crystals drift microseconds apart within 0.1 s."""
    assert edge_spread_us(machine_path, protocol=False) > 1.0
