"""The failure-domain ring's placement walk: the oracle of the plain one.

``HashRing`` once took a ``domains`` map (shard -> failure domain) and
placed replicas in two passes: walk the ring once to list every shard
in clockwise order, then keep the first ``count`` shards whose domains
were still unused, falling back to repeated domains when too few
existed.  With no map every shard was its own domain, and that is the
placement every cluster ran with.  :class:`ReferenceRing` keeps that
ring with one domain per shard; ``test_cluster.py`` holds the product
ring's single clockwise walk to the same owners for every key.
"""

from __future__ import annotations

import bisect

from repro.util.seeding import derive_seed


class ReferenceRing:
    """``HashRing(n_shards, seed)`` (``vnodes`` points per shard) with
    one domain per shard."""

    def __init__(self, n_shards: int, vnodes: int = 64, seed: int = 0):
        self.n_shards = n_shards
        self.domains = tuple(range(n_shards))
        points = sorted(
            (derive_seed(seed, "ring", shard, v), shard)
            for shard in range(n_shards)
            for v in range(vnodes)
        )
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def shards_for(self, key: int, count: int = 1) -> list[int]:
        count = min(count, self.n_shards)
        i = bisect.bisect_right(self._hashes, key & (2**64 - 1))
        order: list[int] = []
        seen: set[int] = set()
        n = len(self._owners)
        while len(order) < self.n_shards:
            shard = self._owners[i % n]
            if shard not in seen:
                seen.add(shard)
                order.append(shard)
            i += 1
        owners: list[int] = []
        used_domains: set[int] = set()
        for shard in order:
            if len(owners) == count:
                break
            domain = self.domains[shard]
            if domain in used_domains:
                continue
            used_domains.add(domain)
            owners.append(shard)
        if len(owners) < count:
            for shard in order:
                if len(owners) == count:
                    break
                if shard in owners:
                    continue
                owners.append(shard)
        return owners
