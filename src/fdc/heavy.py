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
``tests/reference.py`` decides the same predicate by brute force and by the
paper's literal feasibility LP.

The packing runs over F_p: a set independent mod p is independent over Q,
so its sets, arcs and sinks are genuine rational ones.  It runs first mod
p = ``exact.PRIME`` in int64, and each answer it gives is certified by exact
spans before it is returned.  When a certificate fails (p divides a minor
that matters) the packing reruns mod ``exact.exact_prime(dirs)``, a prime
above Hadamard's bound on every minor, in Python ints.  There every set of
directions has the same rank as over Q, so the packing, its exchange graph
and its answer are the rational ones (Cabay and Lam 1977).
"""

from dataclasses import dataclass

import numpy as np

from . import exact
from .dataset import as_point_array
from .errors import InternalInvariantViolated
from .exact import PRIME
from .linalg import Subspace, span_of


@dataclass
class HeavySubspaceResult:
    found: bool
    subspace: Subspace = None
    member_indices: list = None


class BasisPacking:
    """Integer-weighted independent sets of the directions mod a prime p:
    ``sets`` maps an independent set (a sorted index tuple) to its weight,
    the weights sum to at most M, and ``cover[i]``, the weight of the sets
    holding direction i, never exceeds its demand k*mult[i].

    ``prime`` None means PRIME, with int64 residues.  A set independent mod
    p is independent over Q, so the arcs and sinks are arcs and sinks of the
    rational exchange graph of the same sets, but the packing may fall short
    of the rational maximum.  A prime from ``exact.exact_prime`` (residues
    in Python ints) gives the rational packing itself."""

    def __init__(self, dirs, mult, k, prime=None):
        self.dirs, self.k = dirs, k
        self.prime = PRIME if prime is None else prime
        self.residues = (dirs if prime is None else dirs.astype(object)) % self.prime
        self.demand = k * np.asarray(mult, dtype=np.int64)
        self.cover = np.zeros(dirs.shape[0], dtype=np.int64)
        self.sets = {}
        self._exchanges = {}
        # Each set takes the directions of largest remaining demand that
        # extend its span.  A round adds eps to at most k covers and uses up
        # eps of the M slots, so sum(cover) <= k*(M - free) < kM while a slot
        # is free: some demand is unmet, and every round has a direction.
        free = int(np.sum(mult))
        while free:
            left = self.demand - self.cover
            order = np.argsort(-left, kind="stable")
            B, data = self._eliminate(order[left[order] > 0], k)
            self._exchanges.setdefault(B, data)
            eps = min(free, int(left[list(B)].min()))
            self._change(B, eps)
            free -= eps

    def _eliminate(self, lead, k):
        """(B, (arcs, outside)): the greedy set B of the directions ``lead``
        mod p, up to k of them, and its exchange data from one elimination
        of all directions with ``lead`` in front.  arcs[u, a] when u is not
        in B, lies in span B and has a nonzero coefficient on B[a] (so
        B - B[a] + u is independent); outside[u] when u is not in span B."""
        n = self.dirs.shape[0]
        others = np.ones(n, dtype=bool)
        others[lead] = False
        order = np.concatenate([lead, np.flatnonzero(others)])
        A = self.residues[order].T.copy()
        P = _mod_echelon(A, len(lead), k, self.prime)
        back = np.argsort(order)
        coef, outside = A[:len(P)].T[back], (A[len(P):] != 0).any(axis=0)[back]
        members = order[P]
        arcs = coef[:, np.argsort(members)] != 0
        arcs[outside] = False
        arcs[members] = False
        return tuple(sorted(members.tolist())), (arcs, outside)

    def _exchange(self, B):
        if B not in self._exchanges:
            got, self._exchanges[B] = self._eliminate(np.array(B), len(B))
            if got != B:
                raise InternalInvariantViolated("a packed set is not independent mod p")
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


def _mod_echelon(A, m, k, p):
    """Gauss-Jordan elimination mod p on the columns of A (residues, in
    place), pivoting left to right among the first m columns until k pivots.
    Returns the pivot columns P: the first m columns' lexicographically first
    independent set mod p.  Afterwards rows :|P| of column j hold its
    coefficients on the columns P, and rows |P|: are zero exactly when
    column j lies in their span mod p.  With int64 residues below 2^28 each
    step reduces products of two residues, below 2^56, so nothing overflows;
    object residues are Python ints."""
    cols, c = [], 0
    while len(cols) < k and c < m:
        j = len(cols)
        live = (A[j:, c:m] != 0).any(axis=0)
        t = int(live.argmax())
        if not live[t]:
            break
        c += t
        i = j + int((A[j:, c] != 0).argmax())
        if i != j:
            A[[j, i]] = A[[i, j]]
        row = A[j] * pow(int(A[j, c]), -1, p) % p
        A -= A[:, c:c + 1] * row
        A %= p
        A[j] = row
        cols.append(c)
        c += 1
    return cols


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


def _decide(packing, mult, inverse):
    """The answer of a packing, maximized here, or None when the exact
    certificate of the answer fails.

    With demand left unmet, the flat W spanned by the reached directions of
    the first set must have excess k*m(W) - M*dim W equal to the unmet
    demand: by weak duality no flat has more, and the reached directions lie
    in the smallest flat of the largest excess, so W is that flat.

    With all demand met, every packed set has k directions (the cover kM
    fills weight at most M), and each least-mass candidate R must give its
    flat F, the exact span of B1 & R for the first set B1, excess 0.  That
    alone makes the positive-mass directions of F exactly R, over Q and over
    F_p alike:
    - B1 & R is not empty: a primitive direction is nonzero mod p, so it is
      in B1 or has an arc into it;
    - excess 0 forces |B & F| = dim F for every packed B (the sets cover
      k*m(F) = M*dim F with weight M), so B & F spans F and no arc leads
      from F out of it; then reach(x) lies in R & F for x in B1 & R, and it
      is R because R has the least mass;
    - R is closed, so it lies in the span mod p of B & R, which then holds
      dim F directions: B & R = B & F for every packed B, and every
      positive-mass direction of F, held by some set, is in R.
    Over F_p, whose arcs are rational arcs of the same packing, that makes
    the candidates the rational ones.
    """
    dirs, k = packing.dirs, packing.k
    M = int(mult.sum())
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
        # The live directions are not strongly connected, so one of them
        # misses another: the least mass is below M.
        mass = reach.astype(np.int64) @ mult[live]
        cands = [np.isin(np.arange(dirs.shape[0]), live[row])
                 for row in np.unique(reach[mass == mass.min()], axis=0)]
        excess = 0
    # Every packed set meets each candidate in a basis of it.
    first, best = next(iter(packing.sets)), None
    for sel in cands:
        basis = [i for i in first if sel[i]]
        mask = exact.membership_mask(dirs[basis], dirs)
        if k * int(mult[mask].sum()) - M * len(basis) != excess:
            return None
        members = np.nonzero(mask[inverse])[0].tolist()
        if best is None or members < best[0]:
            best = members, mask
    return HeavySubspaceResult(True, span_of(dirs[best[1]]), best[0])


def find_heavy_subspace(point_set, V=None, mults=None):
    """Decide whether a proper subspace W of V holds at least a
    dim(W)/dim(V) fraction of the points; return one if so.

    The returned subspace satisfies |members| * dim(V) >= dim(W) * |S|
    exactly (counts weighted by ``mults`` when given); members come from
    exact membership, so a zero-count row in W is one.  The winner has the
    largest count excess, then the least dimension, then the least member
    list: a rule invariant under per-point positive rescaling and global
    invertible maps.  Decided from a maximum packing mod PRIME when its
    answer is certified (a greedy set of dim V directions also shows the
    points span V), else from a maximum packing mod ``exact.exact_prime``,
    which is the rational one.
    """
    pts = as_point_array(point_set)
    span_S = span_of(pts) if V is None else None
    k = span_S.dim if V is None else V.dim
    dirs, mult, inverse = exact.directions(pts)
    if mults is not None:
        mult = np.zeros(dirs.shape[0], dtype=np.int64)
        np.add.at(mult, inverse, np.asarray(mults, dtype=np.int64))
    if k > 1:
        packing = BasisPacking(dirs, mult, k)
        if any(len(B) == k for B in packing.sets):
            result = _decide(packing, mult, inverse)
            if result is not None:
                return result
    if span_S is None:
        span_S = span_of(pts)
    if span_S.dim < k:
        return HeavySubspaceResult(True, span_S, list(range(pts.shape[0])))
    if k == 1:
        return HeavySubspaceResult(False)
    result = _decide(BasisPacking(dirs, mult, k, exact.exact_prime(dirs)), mult, inverse)
    if result is None:
        raise InternalInvariantViolated("heavy flat and packing disagree on the excess")
    return result
