"""Plain union-find over 0..n-1 with path compression."""

from __future__ import annotations


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller root wins, so representatives are deterministic
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb
