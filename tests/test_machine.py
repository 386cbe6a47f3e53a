import math
import os

import pytest

from conftest import DATA_DIR, delta, hex_dist, neighbor, route_path, transit_ns
from spikert.costs import parse_cost_overrides
from spikert.machine import (LINK_VECTORS, LINKS, MachineSpec, auto_machine, load_machine_spec,
                             parse_machine_spec, serialize_machine_spec)
from spikert.network import SpecError


def hex_distance(machine, src, dst) -> int:
    """Hops between two chips along the canonical route."""
    return hex_dist(*delta(machine, src, dst))


@pytest.fixture
def grid():
    return MachineSpec(width=8, height=6, wrap_vertical=False)


@pytest.fixture
def wrapped():
    return MachineSpec(width=24, height=24)


def test_link_geometry(grid):
    assert LINKS == ("E", "NE", "N", "W", "SW", "S")
    for l in range(6):  # link l + 3 runs back along link l
        assert LINK_VECTORS[(l + 3) % 6] == tuple(-v for v in LINK_VECTORS[l])
    assert neighbor(grid, (0, 0), 0) == (1, 0)
    assert neighbor(grid, (0, 0), 1) == (1, 1)
    assert neighbor(grid, (0, 0), 3) is None  # west edge
    assert neighbor(grid, (0, 0), 5) is None  # no wrap


def test_hex_distance_diagonal_counts_once(grid):
    assert hex_distance(grid, (0, 0), (3, 3)) == 3     # pure NE moves
    assert hex_distance(grid, (0, 0), (5, 2)) == 5     # NE then E
    assert hex_distance(grid, (0, 0), (2, 3)) == 3
    assert hex_distance(grid, (3, 0), (0, 3)) == 6     # opposite signs: no diagonal


def test_vertical_wrap_shortens_paths(wrapped):
    assert hex_distance(wrapped, (0, 0), (0, 23)) == 1
    assert hex_distance(wrapped, (0, 0), (0, 12)) == 12  # tie resolves northward
    assert hex_distance(wrapped, (0, 0), (2, 22)) == 4   # (2,-2): SW diagonal


def test_route_path_is_minimal_and_connected(wrapped):
    for dst in [(5, 3), (3, 5), (0, 23), (23, 0), (10, 20), (23, 23)]:
        path = route_path(wrapped, (0, 0), dst)
        assert path[0] == (0, 0) and path[-1] == dst
        assert len(path) - 1 == hex_distance(wrapped, (0, 0), dst)


def test_transit_arithmetic_example():
    """3 router hops with one board-boundary crossing = 3*500 + 900 ns."""
    m = MachineSpec(width=16, height=6, wrap_vertical=False,
                    board_tile_width=8, board_tile_height=6)
    # (6,0) -> (9,0): hops 7,8,9; the 7->8 hop crosses the x=8 tile boundary
    assert transit_ns(m, (6, 0), (9, 0)) == 3 * 500.0 + 900.0
    assert transit_ns(m, (0, 0), (0, 0)) == 0.0
    assert transit_ns(m, (0, 0), (1, 0)) == 500.0


@pytest.mark.parametrize("machine", [
    pytest.param(MachineSpec(width=24, height=24), id="12board"),
    pytest.param(MachineSpec(width=16, height=6, wrap_vertical=False), id="flat"),
    pytest.param(MachineSpec(width=7, height=5, board_tile_width=3, board_tile_height=2,
                             router_hop_latency_ns=333.3, board_link_latency_ns=123.45),
                 id="odd-tiles"),
    pytest.param(MachineSpec(width=5, height=13, wrap_vertical=False, board_tile_width=2,
                             board_tile_height=3, router_hop_latency_ns=0.1,
                             board_link_latency_ns=0.7), id="inexact-sums"),
    pytest.param(MachineSpec(width=1, height=1), id="one-chip"),
])
def test_transits_from_origin_equal_transit_ns(machine):
    """The array form adds the same hop latencies in the same order as the
    route walk, so even sums that float rounding makes inexact agree bit
    for bit."""
    assert machine.transits_from_origin_ns().tolist() == [
        transit_ns(machine, (0, 0), (x, y)) for x in range(machine.width)
        for y in range(machine.height)]


def test_board_tiling_and_count(wrapped):
    assert wrapped.boards() == 12
    assert wrapped.board_of((0, 0)) == (0, 0)
    assert wrapped.board_of((8, 0)) == (1, 0)
    assert wrapped.board_of((7, 6)) == (0, 1)
    assert wrapped.board_index((0, 0)) == 0


def test_radial_order_starts_at_origin_and_respects_rings(wrapped):
    order = wrapped.radial_order()
    assert order[0] == (0, 0)
    dists = [hex_distance(wrapped, (0, 0), c) for c in order]
    assert dists == sorted(dists)
    assert len(order) == 576
    # with vertical wrap, both (0,1) and (0,23) sit on the first ring
    first_ring = {c for c, d in zip(order, dists) if d == 1}
    assert (0, 1) in first_ring and (0, 23) in first_ring


@pytest.mark.parametrize("machine", [
    MachineSpec(width=8, height=6, wrap_vertical=False),
    MachineSpec(width=24, height=24),
    MachineSpec(width=7, height=5),
    MachineSpec(width=40, height=30, wrap_vertical=False),
    MachineSpec(width=48, height=36),
    load_machine_spec(os.path.join(DATA_DIR, "machine_12board.mach")),
], ids=["8x6_unwrapped", "24x24", "7x5", "40x30_unwrapped", "48x36", "machine_12board"])
def test_radial_order_equals_the_scalar_sort(machine):
    """``radial_order`` orders the chips over arrays as sorting them one by
    one on (ring, angle counter-clockwise from +x, x, y) does."""
    def key(chip):
        dx, dy = delta(machine, (0, 0), chip)
        return hex_dist(dx, dy), math.atan2(dy, dx) % (2.0 * math.pi), chip[0], chip[1]

    chips = [(x, y) for x in range(machine.width) for y in range(machine.height)]
    assert machine.radial_order() == sorted(chips, key=key)


def test_machine_file_round_trip(machine_path):
    spec = load_machine_spec(machine_path)
    assert spec.width == spec.height == 24
    assert spec.wrap_vertical
    assert spec.usable_cores_per_chip == 16
    again = parse_machine_spec(serialize_machine_spec(spec))
    assert again == spec


def test_dead_core_parsing():
    spec = parse_machine_spec("[machine]\nwidth = 2\nheight = 2\n"
                              "dead_core = 1 1 3\ndead_core = 0 1\n")
    assert spec.usable_cores((1, 1)) == 13
    assert spec.usable_cores((0, 1)) == 15
    assert spec.usable_cores((0, 0)) == 16


@pytest.mark.parametrize("value,wrap", [("TRUE", True), ("Yes", True), ("1", True),
                                        ("False", False), ("no", False), ("0", False)])
def test_wrap_vertical_reads_any_case(value, wrap):
    """``serialize_machine_spec`` writes True/False; a file may also say
    yes/no or 1/0, in any case."""
    spec = parse_machine_spec(f"[machine]\nwidth = 2\nheight = 2\nwrap_vertical = {value}\n")
    assert spec.wrap_vertical is wrap


@pytest.mark.parametrize("parse,section", [
    pytest.param(parse_machine_spec, "machine", id="machine"),
    pytest.param(parse_cost_overrides, "costs", id="costs"),
])
@pytest.mark.parametrize("text,message", [
    pytest.param("# comment\n[network]\n", "line 2: unknown section [network]",
                 id="other_section"),
    pytest.param("\nwidth = 2\n", "line 2: expected 'key = value' in [{section}]",
                 id="before_section"),
    pytest.param("[{section}]  # one section\n\nwidth 2\n",
                 "line 3: expected 'key = value' in [{section}]", id="no_equals"),
    pytest.param("[{section}]\n[{section}]\nbogus = 1\n", "line 3: unknown ",
                 id="unknown_key"),
])
def test_single_section_files_name_the_bad_line(parse, section, text, message):
    """Machine and cost files share one line reader and its messages."""
    with pytest.raises(SpecError) as err:
        parse(text.format(section=section))
    assert str(err.value).startswith(message.format(section=section))


def test_validation_errors():
    with pytest.raises(SpecError):
        MachineSpec(width=0, height=2).validate()
    with pytest.raises(SpecError):
        MachineSpec(width=2, height=2, usable_cores_per_chip=17).validate()


def test_auto_machine_grows_in_boards():
    assert auto_machine(1).n_chips() == 48
    assert auto_machine(48).n_chips() == 48
    assert auto_machine(49).n_chips() == 96
    big = auto_machine(500)
    assert big.n_chips() >= 500
    assert big.width % 8 == 0 and big.height % 6 == 0
