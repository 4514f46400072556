"""The ADJ plan optimizer (paper Alg. 2).

Greedy reverse construction of the query plan: starting from the full
bag set ``V`` of the hypertree, each round fixes which bag is traversed
*last* among the remaining ones and how its candidate relation is
obtained. A multi-relation bag has three variants, each priced per
candidate ``v`` whose removal keeps the untraversed bags connected (the
validity condition of §III-A):

* ``raw`` — the final Leapfrog intersects the bag's raw relations:
  ``cost_C(C) + cost_E^i(O', raw)``;
* ``distributed`` — the bag is pre-computed by a one-round join of its
  own and shipped as one relation:
  ``cost_M(R_v) + cost_C(C ∪ R_v) + cost_E^i(O', pre)``;
* ``server`` — each server joins its part of the bag from the raw tuples
  the final round already sends it, then runs the final Leapfrog with
  the bag's trie in place of the relations it covers:
  ``cost_C(C) + cost_S(v, p) + cost_E^i(O', pre)``, where ``p`` is the
  share vector of ``cost_C(C)``. There is no γ, no bag shuffle and no
  second share solve; the bag's seconds land in the Computation column
  of Tables II–IV and, per server, in ``ServerRecord.bag_s``.

A single-relation bag is raw. Only the i-th extension step is costed per
round — the last Leapfrog steps dominate complex joins (paper Fig. 6).

Estimation follows §III-B/§IV:

* Prefix binding counts ``|T^{v_{i−1}}|`` come from the sampler on the
  prefix sub-query (relations projected onto the prefix attributes);
  they depend only on the prefix attribute *set* — exactly the union of
  the remaining bags' attributes — so they are well defined before the
  internal order of the prefix is fixed.
* ``cost_E^i = |T^{v_{i−1}}| / (β_i · N)`` prices the i-th extension
  step, where ``β_i`` is the cost model's ``β_pre`` when ``v`` is
  pre-computed (either way) and ``β_raw`` otherwise, both timed on the
  Leapfrog kernel (``repro.core.cost``). Every variant is thus priced on
  one scale, and for a given seed the plan depends on the sampled counts
  only, not on the speed of the machine — as long as no sampling call
  reaches its safety cap, ``_Estimator.BUDGET_PER_CALL``.
* A bag's candidate relation ``R_v`` joins every relation whose schema
  lies inside the bag (:func:`bag_join`). ``cost_M``'s and ``cost_S``'s
  |R_v| and work W_v are exact: one count-only Leapfrog on the driver
  counts R_v and its extensions, the kernel and the unit ``β_raw`` is
  timed in.

The returned ``PlanChoice`` is what the final round runs: Q_i's
relations (distributed bags with their exact |R_v|, raw relations with
their sizes), the bags each server joins from them, the attribute order,
and the share vector of Eq. (3) solved on those relations.
``PlanChoice.est["rounds"]`` names each round's bag, variant and price;
``PlanChoice.est["capped"]`` lists the prefix estimates (by sampled
attribute order) that reached the safety cap.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.cost import CostModel
from repro.core.executor import ServerBag
from repro.core.hypertree import Bag, Hypertree, find_hypertree
from repro.core.query import JoinQuery, Relation
from repro.core.sampling import LocalDB, estimate_cardinality_local
from repro.hcube.shares import Shares
from repro.leapfrog.leapfrog import leapfrog
from repro.leapfrog.trie import TrieCache


#: one relation of a query candidate Q_i: (name, attrs, |R| in tuples)
QiRelation = tuple[str, tuple[str, ...], int]


@dataclass
class PlanChoice:
    """The optimizer's output, and what the final round runs: the query
    candidate Q_i's relations, the bags each server joins from them, its
    attribute order and share vector."""

    query: JoinQuery
    hypertree: Hypertree
    traversal: tuple[int, ...]  # bag indexes in traversal order
    precompute: frozenset[int]  # bags materialized by a round of their own
    on_server: frozenset[int]  # bags each server joins from its tuples
    relations: tuple[QiRelation, ...]  # Q_i, see ``_Estimator.relations``
    order: tuple[str, ...]  # Leapfrog attribute order
    shares: Shares  # HCube share vector for ``relations``
    est: dict = field(default_factory=dict)  # estimated cost breakdown

    @property
    def precomputed_bags(self) -> list[Bag]:
        return [self.hypertree.bags[i] for i in sorted(self.precompute)]

    @property
    def server_bags(self) -> tuple[ServerBag, ...]:
        """The final round's local plan: per bag of ``on_server``, the
        Q_i relations whose schema lies inside it and the order to join
        them in (:func:`bag_join` over Q_i)."""
        qi = JoinQuery(
            self.query.name,
            [Relation(name, attrs) for name, attrs, _ in self.relations],
        )
        out = []
        for i in sorted(self.on_server):
            rels, order = bag_join(qi, self.hypertree.bags[i])
            out.append((tuple(r.name for r in rels), order))
        return tuple(out)


def connected_order(
    attrs: frozenset[str], query: JoinQuery
) -> tuple[str, ...]:
    """``attrs`` ordered for a prefix estimate or a bag count: the first
    in query order (the sampled attribute) leads, then greedily the
    attribute that shares the most relations with those already bound,
    ties in query order.

    Per-value counts do not depend on the order, so neither does the
    count; a connected order only binds fewer partial tuples on the way.
    """
    rest = [a for a in query.attrs if a in attrs]
    order = [rest.pop(0)]
    while rest:
        bound = set(order)
        nxt = max(
            rest,
            key=lambda a: sum(
                a in r.attr_set and not bound.isdisjoint(r.attrs)
                for r in query.relations
            ),
        )
        rest.remove(nxt)
        order.append(nxt)
    return tuple(order)


def bag_join(
    query: JoinQuery, bag: Bag
) -> tuple[tuple[Relation, ...], tuple[str, ...]]:
    """Every relation of ``query`` whose schema lies inside ``bag``, and
    a connected order to join them in (the bag's query order would bind
    Q4's {b,d,e} as b×d, a cross product)."""
    covered = tuple(r for r in query.relations if r.attr_set <= bag.attr_set)
    return covered, connected_order(bag.attr_set, JoinQuery(bag.name, covered))


class _Estimator:
    """Cached counts over a local database: sampled prefix binding counts
    (§IV) and exact bag counts, all read from one trie cache, so each
    distinct trie is built once per ``optimize`` call."""

    #: wall-clock safety cap per sampling call; hub values can be
    #: arbitrarily heavy, so a call that reaches it scales by the samples
    #: it finished, and only then does the estimate depend on the clock
    BUDGET_PER_CALL = 1.0

    def __init__(self, db: LocalDB, query: JoinQuery, k: int, seed: int):
        self.db = db
        self.query = query
        self.k = k
        self.seed = seed
        self._prefix: dict[frozenset[str], float] = {}
        self._bags: dict[int, tuple[int, int]] = {}
        self.tries = TrieCache()
        #: prefix orders whose sample was cut short by ``BUDGET_PER_CALL``
        self.capped: list[tuple[str, ...]] = []

    # -- prefix binding counts --------------------------------------------
    def prefix_count(self, attrs: frozenset[str]) -> float:
        """Estimated |T^{prefix}| for a prefix attribute set."""
        if not attrs:
            return 1.0
        if attrs not in self._prefix:
            order = connected_order(attrs, self.query)
            est = estimate_cardinality_local(
                self.db,
                order,
                k=self.k,
                seed=self.seed,
                budget_seconds=self.BUDGET_PER_CALL,
                tries=self.tries,
            )
            if est.k < min(self.k, est.val_count):
                self.capped.append(order)
            self._prefix[attrs] = max(est.estimate, 1.0)
        return self._prefix[attrs]

    # -- pre-computed bags -------------------------------------------------
    def bag(self, bag: Bag) -> tuple[int, int]:
        """(|R_v|, W_v) of :func:`bag_join`, counted exactly by one
        count-only Leapfrog; W_v is its extensions Σ|T^i|."""
        if bag.index not in self._bags:
            rels, order = bag_join(self.query, bag)
            tries = [
                self.tries(rows, attrs, order)
                for attrs, rows in (self.db[r.name] for r in rels)
            ]
            res = leapfrog(tries, order, emit=False)
            self._bags[bag.index] = (res.count, res.extensions)
        return self._bags[bag.index]

    # -- query candidates --------------------------------------------------
    def relations(
        self, tree: Hypertree, precompute: frozenset[int]
    ) -> list[QiRelation]:
        """Q_i's relations when the bags in ``precompute`` are
        pre-computed: each such bag is one relation ``bag{i}`` over its
        :func:`bag_join` order, with its exact |R_v|; every other bag
        contributes its raw λ(v) relations."""
        out: list[QiRelation] = []
        for b in tree.bags:
            if b.index in precompute:
                order = bag_join(self.query, b)[1]
                out.append((f"bag{b.index}", order, self.bag(b)[0]))
            else:
                out.extend(
                    (r.name, r.attrs, len(self.db[r.name][1]))
                    for r in b.relations
                )
        return out


def optimize(
    query: JoinQuery,
    db: LocalDB,
    cost_model: CostModel,
    *,
    sample_k: int = 200,
    seed: int = 0,
) -> PlanChoice:
    """Run Alg. 2 and return the chosen plan.

    ``db`` holds the (driver-local) relations used for sampling-based
    estimation; execution itself stays in Spark.
    """
    tree = find_hypertree(query)
    est = _Estimator(db, query, sample_k, seed)
    cm = cost_model

    def cost_C(rels: Sequence[QiRelation]) -> tuple[float, Shares]:
        return cm.cost_C(query.attrs, [(attrs, n) for _, attrs, n in rels])

    V = set(range(len(tree.bags)))
    C: frozenset[int] = frozenset()  # distributed bags
    S: frozenset[int] = frozenset()  # bags joined on the servers
    O_rev: list[int] = []
    round_costs: list[dict] = []

    while V:
        best: tuple[float, int, str] | None = None  # (cost, v, variant)
        # the same for every v: the raw candidate's shuffle and shares
        cost_c, shares = cost_C(est.relations(tree, C))
        for v in sorted(V):
            rest = V - {v}
            if rest and not tree.is_connected_subset(rest):
                continue  # O' could not extend to a valid traversal order
            prefix_attrs = frozenset(
                a for i in rest for a in tree.bags[i].attrs
            )
            t_prev = est.prefix_count(prefix_attrs)
            costs = {"raw": cost_c + cm.cost_E(t_prev, precomputed=False)}
            bag = tree.bags[v]
            if bag.needs_precompute:
                cost_e = cm.cost_E(t_prev, precomputed=True)
                work = est.bag(bag)[1]
                costs["server"] = (
                    cost_c + cm.cost_S(bag.attrs, shares, work) + cost_e
                )
                cost_c2, _ = cost_C(est.relations(tree, C | {v}))
                covered, _ = bag_join(query, bag)
                cost_m = cm.cost_M(
                    bag.attrs,
                    [(r.attrs, len(db[r.name][1])) for r in covered],
                    work,
                )
                costs["distributed"] = cost_m + cost_c2 + cost_e
            for variant, cost in costs.items():
                if best is None or cost < best[0]:
                    best = (cost, v, variant)
        assert best is not None, "hypertree has no valid traversal order"
        cost, v_star, variant = best
        if variant == "distributed":
            C = C | {v_star}
        elif variant == "server":
            S = S | {v_star}
        O_rev.append(v_star)
        V.remove(v_star)
        round_costs.append({"bag": v_star, "variant": variant, "cost": cost})

    traversal = tuple(reversed(O_rev))
    relations = tuple(est.relations(tree, C))
    cost_c, shares = cost_C(relations)
    return PlanChoice(
        query=query,
        hypertree=tree,
        traversal=traversal,
        precompute=C,
        on_server=S,
        relations=relations,
        order=tree.attribute_order(traversal),
        shares=shares,
        est={"rounds": round_costs, "cost_C": cost_c, "capped": est.capped},
    )
