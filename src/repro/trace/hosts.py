"""Host population model.

An enterprise network has many clients and few servers, and server
popularity is heavy-tailed (a handful of servers take most connections).
Sampling servers from a Zipf law is what ultimately gives the seed graph
its scale-free in-degree distribution — the property the BA and Kronecker
generators are designed to preserve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["HostPopulation", "ipv4"]


def ipv4(a: int, b: int, c: int, d: int) -> int:
    """Dotted-quad to int."""
    for octet in (a, b, c, d):
        if not 0 <= octet <= 255:
            raise ValueError(f"invalid octet {octet}")
    return (a << 24) | (b << 16) | (c << 8) | d


@dataclass
class HostPopulation:
    """Clients and servers of the simulated network.

    Parameters
    ----------
    n_clients, n_servers:
        Sizes of the two pools.  Addresses are allocated from 10.1.0.0/16
        (clients) and 10.2.0.0/16 (servers).
    server_zipf_exponent:
        Exponent of the Zipf popularity law over servers; ~1.2 gives a
        realistic enterprise skew.
    external_fraction:
        Fraction of sessions that target an "internet" host drawn uniformly
        from 198.18.0.0/16 instead of an internal server, adding the long
        tail of rarely-contacted destinations real traces show.
    """

    n_clients: int = 200
    n_servers: int = 40
    server_zipf_exponent: float = 1.2
    external_fraction: float = 0.15
    clients: np.ndarray = field(init=False)
    servers: np.ndarray = field(init=False)
    _server_cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_clients < 1 or self.n_servers < 1:
            raise ValueError("need at least one client and one server")
        if not 0.0 <= self.external_fraction < 1.0:
            raise ValueError("external_fraction must lie in [0, 1)")
        base_c = ipv4(10, 1, 0, 0)
        base_s = ipv4(10, 2, 0, 0)
        self.clients = base_c + 1 + np.arange(self.n_clients, dtype=np.int64)
        self.servers = base_s + 1 + np.arange(self.n_servers, dtype=np.int64)
        ranks = np.arange(1, self.n_servers + 1, dtype=np.float64)
        weights = ranks ** (-self.server_zipf_exponent)
        self._server_cdf = np.cumsum(weights / weights.sum())

    # ------------------------------------------------------------------
    def sample_clients(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform client draw — every workstation is equally chatty."""
        idx = rng.integers(0, self.n_clients, size=size)
        return self.clients[idx]

    def sample_servers(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Zipf-weighted server draw (heavy-tailed popularity)."""
        u = rng.random(size)
        idx = np.searchsorted(self._server_cdf, u, side="right")
        idx = np.clip(idx, 0, self.n_servers - 1)
        return self.servers[idx]

    def sample_destinations(
        self, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Mix of internal servers and external internet hosts."""
        dests = self.sample_servers(size, rng)
        if self.external_fraction > 0:
            ext_mask = rng.random(size) < self.external_fraction
            n_ext = int(ext_mask.sum())
            if n_ext:
                ext_base = ipv4(198, 18, 0, 0)
                dests = dests.copy()
                dests[ext_mask] = ext_base + rng.integers(
                    1, 65535, size=n_ext
                )
        return dests
