"""On-chip network timing model.

Table I: 4x4 mesh, 2-cycle routers, 1-cycle 256-bit links. We model
latency as hops * (router + link) with one extra router at the destination,
which is the standard first-order model for wormhole meshes. The extra
virtual network CommTM dedicates to forwarded U-state data (Sec. III-B4)
avoids protocol deadlock; in our atomic-operation simulation deadlock cannot
arise, so the virtual network's only observable effect is that forwards are
counted as traffic, which we do in the stats.
"""

from __future__ import annotations

from ..params import NocConfig


class Mesh:
    """2-D mesh distance/latency between tiles.

    Every quantity depends only on a pair of tiles, so the hop and
    one-way latency matrices are built once, here, and every query below
    is a table read."""

    def __init__(self, config: NocConfig):
        self.config = config
        coords = [self.coords(tile) for tile in range(config.num_tiles)]
        #: ``hop_table[src][dst]``: Manhattan hop count between tiles.
        self.hop_table = tuple(
            tuple(abs(sx - dx) + abs(sy - dy) for dx, dy in coords)
            for sx, sy in coords)
        # h links + (h+1) routers, including injection/ejection.
        link, router = config.link_cycles, config.router_cycles
        #: ``latency_table[src][dst]``: one-way message latency in cycles.
        self.latency_table = tuple(
            tuple(h * link + (h + 1) * router for h in row)
            for row in self.hop_table)

    def coords(self, tile: int):
        return tile % self.config.mesh_width, tile // self.config.mesh_width

    def hops(self, src_tile: int, dst_tile: int) -> int:
        """Manhattan hop count between two tiles."""
        return self.hop_table[src_tile][dst_tile]

    def latency(self, src_tile: int, dst_tile: int) -> int:
        """One-way message latency in cycles."""
        return self.latency_table[src_tile][dst_tile]

    def round_trip(self, src_tile: int, dst_tile: int) -> int:
        return 2 * self.latency_table[src_tile][dst_tile]

    def max_latency_from(self, src_tile: int, dst_tiles) -> int:
        """Latency of a broadcast that completes when the farthest
        destination answers (invalidation fan-out)."""
        row = self.latency_table[src_tile]
        return max((row[dst] for dst in dst_tiles), default=0)
