"""Machine geometry: chips on a triangular mesh, boards, link latencies.

Chips sit on a width x height grid with six links per router
(E, NE, N, W, SW, S); the NE/SW diagonals make the mesh triangular.  The
grid optionally wraps vertically (top and bottom edges are adjacent), which
shortens worst-case paths.  Boards are rectangular tiles of chips; a hop
whose endpoints lie on different boards pays the board-to-board link
latency on top of the per-router latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import SpecError, section_entries, typed_value

LINKS = ("E", "NE", "N", "W", "SW", "S")
LINK_VECTORS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


@dataclass(frozen=True)
class MachineSpec:
    width: int
    height: int
    wrap_vertical: bool = True
    cores_per_chip: int = 18
    usable_cores_per_chip: int = 16  # excludes monitor + system cores
    router_hop_latency_ns: float = 500.0
    board_link_latency_ns: float = 900.0
    sdram_bytes: int = 128 * 1024 * 1024
    dtcm_bytes: int = 64 * 1024
    board_tile_width: int = 8
    board_tile_height: int = 6
    routing_entries_per_chip: int = 1024
    dead_cores: tuple[tuple[int, int, int], ...] = ()  # (x, y, count) unusable extra

    def validate(self) -> None:
        if self.width < 1 or self.height < 1:
            raise SpecError("machine dimensions must be positive")
        if self.usable_cores_per_chip > self.cores_per_chip - 2:
            raise SpecError("usable cores must leave room for monitor + system cores")
        for name in ("router_hop_latency_ns", "board_link_latency_ns"):
            if not math.isfinite(getattr(self, name)) or getattr(self, name) <= 0:
                raise SpecError(f"{name} must be a positive finite number")
        for name in ("board_tile_width", "board_tile_height"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be at least 1")
        if self.cores_per_chip > 63:
            raise SpecError("cores_per_chip must be at most 63: a routing entry holds one bit "
                            "per core in an int64")
        for x, y, n in self.dead_cores:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise SpecError(f"dead_core chip ({x}, {y}) lies outside the "
                                f"{self.width}x{self.height} mesh")
            if n < 0:
                raise SpecError(f"dead_core count {n} on chip ({x}, {y}) must be >= 0")

    # -- geometry ----------------------------------------------------------

    def n_chips(self) -> int:
        return self.width * self.height

    def boards(self) -> int:
        bx = -(-self.width // self.board_tile_width)
        by = -(-self.height // self.board_tile_height)
        return bx * by

    def board_of(self, chip: tuple[int, int]) -> tuple[int, int]:
        return chip[0] // self.board_tile_width, chip[1] // self.board_tile_height

    def board_index(self, chip: tuple[int, int]) -> int:
        bx, by = self.board_of(chip)
        return by * (-(-self.width // self.board_tile_width)) + bx

    def canonical_deltas(self, dx: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The canonical route's dy and hop count for arrays of offsets (dx,
        dy): of dy and, through the vertical wrap, dy -/+ height, the fewest
        hops win, then the smallest |dy|, then dy > 0."""
        hops = _hex_dists(dx, dy)
        for rep in (dy - self.height, dy + self.height) if self.wrap_vertical else ():
            d = _hex_dists(dx, rep)
            take = (d < hops) | ((d == hops) & ((abs(rep) < abs(dy))
                                                | ((abs(rep) == abs(dy)) & (rep > dy))))
            dy, hops = np.where(take, rep, dy), np.where(take, d, hops)
        return dy, hops

    def transits_from_origin_ns(self) -> np.ndarray:
        """Latency from chip (0, 0) to every chip along the canonical route,
        x-major, for all chips at once: hop s pays the router, plus the board
        link where the board changes, added in route order."""
        x, y = np.divmod(np.arange(self.n_chips()), self.height)
        dy, hops = self.canonical_deltas(x, y)
        boards_x = -(-self.width // self.board_tile_width)
        total = np.zeros(x.size)
        board = np.zeros(x.size, dtype=np.int64)  # the origin's board
        for s in range(1, int(hops.max(initial=0)) + 1):
            px, py = hop_offsets(x, dy, np.minimum(s, hops))
            py %= self.height
            prev, board = board, (px // self.board_tile_width
                                  + boards_x * (py // self.board_tile_height))
            total += np.where(s > hops, 0.0, np.where(
                board != prev, self.router_hop_latency_ns + self.board_link_latency_ns,
                self.router_hop_latency_ns))
        return total

    # -- capacity ----------------------------------------------------------

    def usable_cores(self, chip: tuple[int, int]) -> int:
        dead = sum(n for x, y, n in self.dead_cores if (x, y) == chip)
        return max(0, self.usable_cores_per_chip - dead)

    # -- placement order ---------------------------------------------------

    def radial_order(self) -> list[tuple[int, int]]:
        """Chips sorted by an outward spiral from (0, 0): distance rings first,
        counter-clockwise from +x within a ring, honoring the vertical wrap."""
        x, y = np.divmod(np.arange(self.n_chips()), self.height)
        dy, hops = self.canonical_deltas(x, y)
        angle = np.arctan2(dy, x) % (2.0 * math.pi)
        order = np.lexsort((y, x, angle, hops))
        return list(zip(x[order].tolist(), y[order].tolist()))


def _hex_dists(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Hops between chips (dx, dy) apart, over arrays: a diagonal hop covers
    one step of x and one of y when both go the same way."""
    return np.where((dx >= 0) == (dy >= 0), np.maximum(abs(dx), abs(dy)), abs(dx) + abs(dy))


def hop_offsets(dx: np.ndarray, dy: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
    """Offset from the source after s hops (0 <= s <= hops) of the canonical
    minimal route to (dx, dy), diagonal first, over arrays: a diagonal of
    m = min(|dx|, |dy|) hops when dx and dy share a sign (none otherwise),
    then E/W, then N/S, so x = sign(dx) * min(s, |dx|) and
    y = sign(dy) * (min(s, m) + max(0, s - |dx|))."""
    ax = abs(dx)
    diag = np.where(dx * dy > 0, np.minimum(ax, abs(dy)), 0)
    return (np.sign(dx) * np.minimum(s, ax),
            np.sign(dy) * (np.minimum(s, diag) + np.maximum(0, s - ax)))


# ---------------------------------------------------------------------------
# Machine spec file

def _flag(value: str) -> bool:
    if value.lower() not in ("true", "false", "yes", "no", "1", "0"):
        raise ValueError(f"expected one of true/false/yes/no/1/0, got '{value}'")
    return value.lower() in ("true", "yes", "1")


_MACHINE_KEYS = {
    "width": int, "height": int, "wrap_vertical": _flag,
    "cores_per_chip": int, "usable_cores_per_chip": int,
    "router_hop_latency_ns": float, "board_link_latency_ns": float,
    "sdram_bytes": int, "dtcm_bytes": int,
    "board_tile_width": int, "board_tile_height": int,
    "routing_entries_per_chip": int,
}


def parse_machine_spec(text: str) -> MachineSpec:
    kwargs: dict = {}
    dead: list[tuple[int, int, int]] = []
    for lineno, key, value in section_entries(text, "machine"):
        if key == "dead_core":
            parts = [typed_value(int, v, f"line {lineno}: {key}") for v in value.split()]
            if len(parts) not in (2, 3):
                raise SpecError(f"line {lineno}: dead_core wants 'x y [count]'")
            dead.append((parts[0], parts[1], parts[2] if len(parts) == 3 else 1))
        elif key in _MACHINE_KEYS:
            kwargs[key] = typed_value(_MACHINE_KEYS[key], value, f"line {lineno}: {key}")
        else:
            raise SpecError(f"line {lineno}: unknown machine key '{key}'")
    if "width" not in kwargs or "height" not in kwargs:
        raise SpecError("[machine] needs width and height")
    spec = MachineSpec(dead_cores=tuple(dead), **kwargs)
    spec.validate()
    return spec


def load_machine_spec(path) -> MachineSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_machine_spec(fh.read())


def serialize_machine_spec(spec: MachineSpec) -> str:
    lines = ["[machine]"]
    for key in _MACHINE_KEYS:
        lines.append(f"{key} = {getattr(spec, key)}")
    for x, y, n in spec.dead_cores:
        lines.append(f"dead_core = {x} {y} {n}")
    return "\n".join(lines) + "\n"


def auto_machine(n_chips_needed: int) -> MachineSpec:
    """Smallest whole-board machine covering the requested chip count.

    Grows in board tiles the way real allocations do: 1 board, a column of
    boards, then near-square multi-board grids.
    """
    tile_w, tile_h = 8, 6
    best = None
    for bx in range(1, 9):
        for by in range(1, 9):
            chips = (bx * tile_w) * (by * tile_h)
            if chips >= n_chips_needed:
                key = (chips, abs(bx * tile_w - by * tile_h), bx)
                if best is None or key < best[0]:
                    best = (key, (bx, by))
    if best is None:
        raise SpecError(f"no machine configuration covers {n_chips_needed} chips")
    bx, by = best[1]
    spec = MachineSpec(width=bx * tile_w, height=by * tile_h)
    spec.validate()
    return spec
