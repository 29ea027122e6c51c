"""Heavy-subspace decision: does a proper subspace W of V hold at least a
dim(W)/dim(V) fraction of the points, and if so, which one.

Exact over the integer coordinates, with no floats.  With the points pooled
into primitive directions u_i of multiplicity m_i (M in all) and k = dim V,
W is heavy when k*m(W) >= M*dim W: the question is the least value of
f(A) = M*r(A) - k*m(A), r the exact rank (Edmonds 1970).  By the matroid
union theorem, M independent sets can cover each u_i up to k*m_i times with
kM + min f in all.  ``BasisPacking`` reaches that with integer weights, by
shortest augmenting paths (Cunningham 1984).  With demand left unmet, the
directions the last path search reached span the winner; with all demand
met, the flats of excess 0 are the sets the exchange graph cannot leave.
``harness.lp_heavy_subspace`` decides the same predicate by the literal LP.
"""

from dataclasses import dataclass

import numpy as np

from . import exact
from .dataset import as_point_array
from .errors import InternalInvariantViolated
from .linalg import Subspace, span_of


@dataclass
class HeavySubspaceResult:
    found: bool
    subspace: Subspace = None
    member_indices: list = None


def _pivot_inverse(rows):
    """Pivot columns P and an integer r x r matrix E with E . B[:, P] = t I,
    t != 0, for r independent integer rows B (lists of Python ints), by
    fraction-free (Bareiss) Gauss-Jordan elimination on [B | I]: every entry
    stays a minor of [B | I], so each division is exact."""
    r = len(rows)
    a = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(rows)]
    cols, prev = [], 1
    for c in range(len(rows[0])):
        p = next((i for i in range(len(cols), r) if a[i][c]), None)
        if p is None:
            continue
        j = len(cols)
        a[j], a[p] = a[p], a[j]
        piv = a[j]
        for i in range(r):
            if i != j:
                f = a[i][c]
                a[i] = [(piv[c] * x - f * y) // prev for x, y in zip(a[i], piv)]
        prev = piv[c]
        cols.append(c)
        if len(cols) == r:
            return cols, [row[-r:] for row in a]
    raise InternalInvariantViolated("a packed set is not independent")


class BasisPacking:
    """Integer-weighted independent sets of the directions: ``sets`` maps an
    independent set (a sorted index tuple) to its weight, the weights sum to
    at most M, and ``cover[i]``, the weight of the sets holding direction i,
    never exceeds its demand k*mult[i]."""

    def __init__(self, dirs, mult, k):
        self.dirs, self.k = dirs, k
        self.demand = k * np.asarray(mult, dtype=np.int64)
        self.cover = np.zeros(dirs.shape[0], dtype=np.int64)
        self.sets = {}
        self._exchanges = {}
        # Each set takes the directions of largest remaining demand that
        # extend its span.  Every round fills the slots or meets a demand, so
        # slots are left over only once every demand is met.
        free = int(np.sum(mult))
        while free:
            left = self.demand - self.cover
            order = np.argsort(-left, kind="stable")
            rest = order[left[order] > 0]
            if not rest.size:
                break
            span, members = exact.IntSpan(dirs.shape[1]), []
            while rest.size and span.rank < k:
                members.append(int(rest[0]))
                span.add(dirs[rest[0]])
                rest = rest[~span.members(dirs[rest])]
            eps = min(free, int(left[members].min()))
            self._change(tuple(sorted(members)), eps)
            free -= eps

    def _exchange(self, B):
        """(arcs, outside) for set B: arcs[u, a] when u is not in B, lies in
        span B and needs B[a] in its expansion over B (so B - B[a] + u is
        independent); outside[u] when u is not in span B."""
        if B not in self._exchanges:
            rows = exact.as_int_rows(self.dirs[list(B)])
            cols, E = _pivot_inverse(rows)
            # u's coefficient on B[a] is u[P] . E[:, a] / t.
            arcs = np.stack([~exact.annihilated([list(col)], self.dirs[:, cols])
                             for col in zip(*E)], axis=1)
            outside = np.zeros(self.dirs.shape[0], dtype=bool)
            if len(B) < self.k:
                outside = ~exact.membership_mask(rows, self.dirs)
            arcs[outside] = False
            arcs[list(B)] = False
            self._exchanges[B] = arcs, outside
        return self._exchanges[B]

    def _change(self, B, eps):
        weight = self.sets.pop(B, 0) + eps
        if weight:
            self.sets[B] = weight
        self.cover[list(B)] += eps

    def _heaviest(self, fits):
        return max((B for B in self.sets if fits(B)), key=self.sets.get)

    def arcs(self):
        """The exchange graph, (adj, sinks): adj[u, v] when some set B holds
        v and not u and B - v + u is independent; sinks[u] when u lies
        outside the span of some set."""
        nu = self.dirs.shape[0]
        adj, sinks = np.zeros((nu, nu), dtype=bool), np.zeros(nu, dtype=bool)
        for B in self.sets:
            arcs, outside = self._exchange(B)
            adj[:, list(B)] |= arcs
            sinks |= outside
        return adj, sinks

    def maximize(self):
        """Augment along shortest paths until none is left; return None if
        every demand is met, else the mask of directions reachable from unmet
        demand.  On a path from unmet demand to a sink (slots are full while
        demand is unmet) each direction replaces the next in a set and the
        last joins a set it lies outside the span of; on a shortest path all
        new sets are independent (Schrijver 2003, Thm 39.13)."""
        while (self.cover < self.demand).any():
            adj, sinks = self.arcs()
            frontier = np.nonzero(self.cover < self.demand)[0]
            seen = np.zeros(adj.shape[0], dtype=bool)
            seen[frontier] = True
            parent = np.full(adj.shape[0], -1)
            while frontier.size and not sinks[frontier].any():
                step = adj[frontier] & ~seen
                frontier, prev = np.nonzero(step.any(axis=0))[0], frontier
                parent[frontier] = prev[np.argmax(step[:, frontier], axis=0)]
                seen[frontier] = True
            if not frontier.size:
                return seen
            path = [int(frontier[sinks[frontier]][0])]
            while parent[path[-1]] >= 0:
                path.append(int(parent[path[-1]]))
            path.reverse()
            swaps = {}
            for u, v in zip(path, path[1:]):
                B = self._heaviest(lambda B: v in B and self._exchange(B)[0][u, B.index(v)])
                new = swaps.setdefault(B, set(B))
                new.discard(v)
                new.add(u)
            B = self._heaviest(lambda B: self._exchange(B)[1][path[-1]])
            swaps.setdefault(B, set(B)).add(path[-1])
            eps = min([int(self.demand[path[0]] - self.cover[path[0]])]
                      + [self.sets[B] for B in swaps])
            for B, new in swaps.items():
                self._change(B, -eps)
                self._change(tuple(sorted(new)), eps)
        return None


def _reach(adj, start):
    """Rows ``start`` of the reflexive transitive closure of a boolean
    adjacency matrix."""
    A = adj.astype(np.float32)
    R = np.eye(adj.shape[0], dtype=bool)[start]
    while True:
        grown = R | ((R.astype(np.float32) @ A) > 0)
        if (grown == R).all():
            return R
        R = grown


def find_heavy_subspace(point_set, V=None, mults=None):
    """Decide whether a proper subspace W of V holds at least a
    dim(W)/dim(V) fraction of the points; return one if so.

    The returned subspace satisfies |members| * dim(V) >= dim(W) * |S|
    exactly (counts weighted by ``mults`` when given); members come from
    exact membership, so a zero-count row in W is one.  The winner has the
    largest count excess, then the least dimension, then the least member
    list: a rule invariant under per-point positive rescaling and global
    invertible maps.  Decided from a maximum ``BasisPacking``.
    """
    pts = as_point_array(point_set)
    n = pts.shape[0]
    span_S = span_of(pts)
    if V is None:
        V = span_S
    if span_S.dim < V.dim:
        return HeavySubspaceResult(True, span_S, list(range(n)))
    k = V.dim
    if k == 1:
        return HeavySubspaceResult(False)

    dirs, mult, inverse = exact.directions(pts)
    if mults is not None:
        mult = np.zeros(dirs.shape[0], dtype=np.int64)
        np.add.at(mult, inverse, np.asarray(mults, dtype=np.int64))
    M = int(mult.sum())
    packing = BasisPacking(dirs, mult, k)
    reached = packing.maximize()
    if reached is not None:
        # The smallest minimiser of f spans the unique winner.
        cands, excess = [reached], int((packing.demand - packing.cover).sum())
    elif not M or not any((M * kappa) % k == 0 for kappa in range(1, k)):
        return HeavySubspaceResult(False)
    else:
        # Flats of excess 0 hold positive mass, and no arc enters a zero-mass
        # direction (no set holds one), so the candidates are the sets
        # reachable from positive-mass directions: none is proper when those
        # are strongly connected, and the least mass gives the least rank.
        live = np.nonzero(mult > 0)[0]
        adj = packing.arcs()[0][np.ix_(live, live)]
        if _reach(adj, [0]).all() and _reach(adj.T, [0]).all():
            return HeavySubspaceResult(False)
        reach = _reach(adj, slice(None))
        mass = reach.astype(np.int64) @ mult[live]
        if mass.min() == M:
            return HeavySubspaceResult(False)
        cands = [np.isin(np.arange(dirs.shape[0]), live[row])
                 for row in np.unique(reach[mass == mass.min()], axis=0)]
        excess = 0
    # Every packed set meets each candidate in a basis of it.
    first, best = next(iter(packing.sets)), None
    for sel in cands:
        basis = [i for i in first if sel[i]]
        mask = exact.membership_mask(exact.as_int_rows(dirs[basis]), dirs)
        if k * int(mult[mask].sum()) - M * len(basis) != excess:
            raise InternalInvariantViolated("heavy flat and packing disagree on the excess")
        members = np.nonzero(mask[inverse])[0].tolist()
        if best is None or members < best[0]:
            best = members, mask
    return HeavySubspaceResult(True, span_of(dirs[best[1]]), best[0])
