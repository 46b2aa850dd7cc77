"""The evolutionary loop: initial population, mating, mutations, selection,
hall of fame, and the multi-run driver with the cross-run coverage ledger."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .canon import pattern_key
from .endpoint import check_settings
from .engine import HARD_TIMEOUT
from .fitness import (_STATUS_PENALTY, CoverageLedger, FitnessTuple,
                      GroundTruthPair, PatternEvaluation, encode_gt, evaluate)
from .patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR, TriplePattern,
                       Variable)
from .rdf import LITERAL, Term
from .simplify import simplify


# the paper's search limits
TOURNAMENT_SIZE = 3
MAX_PATH_LENGTH = 3       # initial path lengths drawn with P(l) ~ 2^-l
FIX_VAR_SAMPLE_SIZE = 32  # GT pairs sampled per fix-var query
MAX_PATTERN_LENGTH = 10   # triples of a pattern fit to live
MAX_VARS = 6              # variables of a pattern fit to live

# the paper's rates
MATING_PROB = 0.5         # each pair of neighbours mates with it
P_DOMINANT = 0.9          # a child keeps a triple of its dominant parent only
P_RECESSIVE = 0.1         # ... and of its recessive parent only
FRAGMENT_FRACTION = 0.1   # of an initial population, one-triple fragments
INIT_FIX_VAR_PROB = 0.9   # an initial path is grounded by fix-var
FIX_VAR_CHILDREN = 8      # at most, per fix-var

# [low, high] of each setting but the seed and score_threshold, which need
# only be finite: a count or a probability
_BOUNDS = {
    "population_size": (1, math.inf),
    **dict.fromkeys(("max_generations", "max_runs", "hall_of_fame_size",
                     "reintro_fresh", "reintro_hof", "min_remains"),
                    (0, math.inf)),
    "p_fix_var": (0, 1),
}


@dataclass
class EvolutionConfig:
    population_size: int = 200
    max_generations: int = 20
    max_runs: int = 64
    p_fix_var: float = 0.3
    hall_of_fame_size: int = 50
    reintro_fresh: int = 4
    reintro_hof: int = 4
    score_threshold: float = 2.0
    min_remains: float = 0.5
    seed: int = 42

    def __post_init__(self):
        check_settings(self, _BOUNDS)


class Individual:
    """A pattern plus its cached fitness; any structural change invalidates it."""

    __slots__ = ("pattern", "fitness", "evaluation")

    def __init__(self, pattern: GraphPattern,
                 fitness: Optional[FitnessTuple] = None,
                 evaluation: Optional[PatternEvaluation] = None):
        self.pattern = pattern
        self.fitness = fitness
        self.evaluation = evaluation

    @property
    def canonical_key(self) -> str:
        return pattern_key(self.pattern)

    def __repr__(self):
        return "Individual(%s)" % self.pattern.text()


class HallOfFame:
    """Bounded best-ever archive, deduplicated by canonical form."""

    def __init__(self, size: int):
        self.size = size
        self._by_key: dict[str, Individual] = {}

    def update(self, individuals) -> None:
        for ind in individuals:
            if ind.fitness is None or not ind.pattern.triples:
                continue
            key = ind.canonical_key
            held = self._by_key.get(key)
            if held is None or ind.fitness.key() > held.fitness.key():
                self._by_key[key] = ind
        if len(self._by_key) > self.size:
            self._by_key = {ind.canonical_key: ind for ind in self.best(self.size)}

    def best(self, n: Optional[int] = None) -> list[Individual]:
        ranked = sorted(self._by_key.items(),
                        key=lambda kv: (kv[1].fitness.key(), kv[0]),
                        reverse=True)
        inds = [ind for _, ind in ranked]
        return inds if n is None else inds[:n]

    def __len__(self):
        return len(self._by_key)


# ---------------------------------------------------------------------------
# Initial population


def _random_path(rng: random.Random) -> GraphPattern:
    lengths = list(range(1, MAX_PATH_LENGTH + 1))
    weights = [2.0 ** -l for l in lengths]
    l = rng.choices(lengths, weights=weights)[0]
    nodes = [SOURCE_VAR] + [Variable("n%d" % i) for i in range(1, l)] + [TARGET_VAR]
    triples = []
    for i in range(l):
        s, o = nodes[i], nodes[i + 1]
        if rng.random() < 0.5:
            s, o = o, s
        triples.append(TriplePattern(s, Variable("p%d" % (i + 1)), o))
    return GraphPattern(triples)


def _random_fragment(rng: random.Random) -> GraphPattern:
    anchor = SOURCE_VAR if rng.random() < 0.5 else TARGET_VAR
    if rng.random() < 0.5:
        tp = TriplePattern(anchor, Variable("p1"), Variable("v1"))
    else:
        tp = TriplePattern(Variable("v1"), Variable("p1"), anchor)
    return GraphPattern([tp])


def init_population(cfg: EvolutionConfig, rng: random.Random, endpoint,
                    gt: Sequence[GroundTruthPair], ledger: CoverageLedger,
                    size: Optional[int] = None) -> list[Individual]:
    size = cfg.population_size if size is None else size
    n_fragments = int(round(FRAGMENT_FRACTION * size))
    population: list[Individual] = []
    for _ in range(n_fragments):
        population.append(Individual(_random_fragment(rng)))
    while len(population) < size:
        gp = _random_path(rng)
        if rng.random() < INIT_FIX_VAR_PROB:
            children = fix_var(gp, endpoint, gt, ledger, rng)
            if children:
                gp = children[rng.randrange(len(children))]
        population.append(Individual(gp))
    return population


# ---------------------------------------------------------------------------
# Mating


def _names(gp: GraphPattern) -> set[str]:
    return {v.name for v in gp.variables()}


def _fresh_var(taken: set[str], prefix: str = "v") -> Variable:
    """The variable `prefix<n>` of the lowest n whose name is not in `taken`;
    its name is added to `taken`."""
    i = 0
    while "%s%d" % (prefix, i) in taken:
        i += 1
    taken.add("%s%d" % (prefix, i))
    return Variable("%s%d" % (prefix, i))


def _mate_one(dominant: GraphPattern, recessive: GraphPattern,
              rng: random.Random) -> GraphPattern:
    shared = dominant.triples & recessive.triples
    child = set(shared)
    for tp in sorted(dominant.triples - shared, key=TriplePattern.sort_key):
        if rng.random() < P_DOMINANT:
            child.add(tp)
    rec_rest = sorted(recessive.triples - shared, key=TriplePattern.sort_key)
    if rec_rest and rng.random() < 0.5:
        # avoid accidental variable capture from the recessive side
        taken = {v.name for tp in child for v in tp.variables()} | \
                {v.name for tp in rec_rest for v in tp.variables()}
        rename: dict[Variable, Variable] = {}
        for tp in rec_rest:
            for v in tp.variables():
                if not v.is_reserved and v not in rename:
                    rename[v] = _fresh_var(taken, "r")
        rec_rest = [tp.substitute(rename) for tp in rec_rest]
    for tp in rec_rest:
        if rng.random() < P_RECESSIVE:
            child.add(tp)
    return GraphPattern(child)


def mate(parent_a: Individual, parent_b: Individual,
         rng: random.Random) -> tuple[Individual, Individual]:
    """Two children with swapped dominant/recessive roles."""
    c1 = _mate_one(parent_a.pattern, parent_b.pattern, rng)
    c2 = _mate_one(parent_b.pattern, parent_a.pattern, rng)
    return Individual(c1), Individual(c2)


# ---------------------------------------------------------------------------
# Mutation strategies (each returns a new pattern or None if inapplicable)


def mut_introduce_var(gp: GraphPattern, rng: random.Random) -> Optional[GraphPattern]:
    fixed = sorted({n for tp in gp.triples for n in tp if isinstance(n, Term)},
                   key=Term.sort_key)
    if not fixed:
        return None
    chosen = fixed[rng.randrange(len(fixed))]
    return gp.substitute({chosen: _fresh_var(_names(gp))})


def _occurrence_slots(gp: GraphPattern, var: Variable) -> list[tuple[TriplePattern, int]]:
    slots = []
    for tp in gp.sorted_triples():
        for i, node in enumerate(tp):
            if node == var:
                slots.append((tp, i))
    return slots


def mut_split_var(gp: GraphPattern, rng: random.Random) -> Optional[GraphPattern]:
    candidates = [v for v in gp.nonreserved_variables()
                  if len(_occurrence_slots(gp, v)) >= 2]
    if not candidates:
        return None
    var = candidates[rng.randrange(len(candidates))]
    slots = _occurrence_slots(gp, var)
    taken = _names(gp)
    a, b = _fresh_var(taken), _fresh_var(taken)
    for _ in range(8):  # reject assignments leaving one side empty
        assign = [rng.random() < 0.5 for _ in slots]
        if any(assign) and not all(assign):
            break
    else:
        return None
    replacement = {slot: (a if pick else b) for slot, pick in zip(slots, assign)}
    new_triples = []
    for tp in gp.sorted_triples():
        nodes = list(tp)
        for i, node in enumerate(nodes):
            if node == var:
                nodes[i] = replacement[(tp, i)]
        new_triples.append(TriplePattern(*nodes))
    return GraphPattern(new_triples)


def mut_merge_var(gp: GraphPattern, rng: random.Random) -> Optional[GraphPattern]:
    candidates = gp.nonreserved_variables()
    if len(candidates) < 2:
        return None
    a, b = rng.sample(candidates, 2)
    return gp.substitute({b: a})


def mut_del_triple(gp: GraphPattern, rng: random.Random) -> Optional[GraphPattern]:
    triples = gp.sorted_triples()
    if not triples:
        return None
    victim = triples[rng.randrange(len(triples))]
    return gp.without_triple(victim)


def mut_expand_node(gp: GraphPattern, rng: random.Random) -> Optional[GraphPattern]:
    nodes = sorted(gp.nodes(), key=lambda n: n.sort_key())
    if not nodes:
        return None
    node = nodes[rng.randrange(len(nodes))]
    taken = _names(gp)
    pred, other = _fresh_var(taken, "p"), _fresh_var(taken)
    outgoing = rng.random() < 0.5
    if isinstance(node, Term) and node.kind == LITERAL:
        outgoing = False  # literals cannot be subjects
    tp = TriplePattern(node, pred, other) if outgoing else TriplePattern(other, pred, node)
    return gp.with_triple(tp)


def mut_add_edge(gp: GraphPattern, rng: random.Random) -> Optional[GraphPattern]:
    nodes = sorted(gp.nodes(), key=lambda n: n.sort_key())
    if len(nodes) < 2:
        return None
    a, b = rng.sample(nodes, 2)
    if rng.random() < 0.5:
        a, b = b, a
    if isinstance(a, Term) and a.kind == LITERAL:
        a, b = b, a
        if isinstance(a, Term) and a.kind == LITERAL:
            return None
    if any(tp.s == a and tp.o == b for tp in gp.triples):
        return None  # an identical pattern edge already exists
    pred = _fresh_var(_names(gp), "p")
    return gp.with_triple(TriplePattern(a, pred, b))


def mut_increase_dist(gp: GraphPattern, rng: random.Random) -> Optional[GraphPattern]:
    present = [v for v in (SOURCE_VAR, TARGET_VAR) if v in gp.variables()]
    if not present:
        return None
    reserved = present[rng.randrange(len(present))]
    taken = _names(gp)
    hop, pred = _fresh_var(taken, "n"), _fresh_var(taken, "p")
    moved = gp.substitute({reserved: hop})
    if rng.random() < 0.5:
        tp = TriplePattern(reserved, pred, hop)
    else:
        tp = TriplePattern(hop, pred, reserved)
    return moved.with_triple(tp)


def mut_simplify(gp: GraphPattern, rng: random.Random) -> Optional[GraphPattern]:
    out = simplify(gp)
    return out if out != gp else None


def _weighted_draws(weights: Sequence[float], m: int,
                    rng: random.Random) -> list[int]:
    """Up to `m` indices drawn without replacement with probability
    proportional to their non-negative weights; stops once the weight left
    is 0. The pick of a draw is the first index whose running sum of the
    pool, added left to right from 0.0, exceeds `rng.random()` times the
    last running sum, or the last index left if rounding leaves none."""
    import numpy as np

    pool = np.array(weights, dtype=np.float64)
    sums = np.cumsum(pool)  # one add at a time, left to right
    picks: list[int] = []
    for _ in range(m):
        total = float(sums[-1]) if len(sums) else 0.0
        if total <= 0:
            break
        r = rng.random() * total
        pick = int(sums.searchsorted(r, "right"))
        if pick == len(pool):  # rounding left r at the total
            pick -= 1
            while pick in picks:
                pick -= 1
        picks.append(pick)
        # a drawn weight becomes 0.0, and x + 0.0 == x: re-accumulated from
        # the sum before it, the sums are those of the pool without it
        pool[pick] = sums[pick - 1] if pick else 0.0
        np.add.accumulate(pool[pick:], out=sums[pick:])
        pool[pick] = 0.0
    return picks


def fix_var(gp: GraphPattern, endpoint, gt: Sequence[GroundTruthPair],
            ledger: CoverageLedger, rng: random.Random) -> list[GraphPattern]:
    """Ground one variable with terms observed while binding sampled GT
    pairs; `gt` is encoded here unless `encode_gt` did so for `endpoint`."""
    candidates = gp.nonreserved_variables()
    if not candidates:
        return []
    var = candidates[rng.randrange(len(candidates))]

    gt = encode_gt(endpoint, gt)
    # a saturated ledger weighs every pair 0: sample uniformly instead
    weights = ledger.weights if ledger.remains() > 0 else [1.0] * len(gt)
    sampled = _weighted_draws(weights, FIX_VAR_SAMPLE_SIZE, rng)
    pairs = [(gt.sources[i], gt.targets[i]) for i in sampled]

    res = endpoint.run_select(gp, [SOURCE_VAR, TARGET_VAR, var],
                              values=([SOURCE_VAR, TARGET_VAR], pairs),
                              limit=endpoint.config.default_limit, cache=False)
    if res.status == HARD_TIMEOUT or not res.rows:
        return []
    # the pattern binds `var`, so each of its handles has a term
    counts: dict = {}
    for row in res.rows:
        counts[row[2]] = counts.get(row[2], 0) + 1
    ranked = sorted(zip(counts.values(), endpoint.terms(list(counts))),
                    key=lambda ct: (-ct[0], ct[1].sort_key()))
    children: list[GraphPattern] = []
    for k in _weighted_draws([float(c) for c, _ in ranked], FIX_VAR_CHILDREN, rng):
        try:
            children.append(gp.substitute({var: ranked[k][1]}))
        except ValueError:
            pass  # a literal subject, or a blank node, which no pattern names
    return children


# (probability, operator), applied sequentially in this order by `mutate`
_LOCAL_STRATEGIES = (
    (0.05, mut_introduce_var),
    (0.05, mut_split_var),
    (0.05, mut_merge_var),
    (0.05, mut_del_triple),
    (0.1, mut_expand_node),
    (0.05, mut_add_edge),
    (0.05, mut_increase_dist),
    (0.05, mut_simplify),
)


def mutate(individual: Individual, endpoint, gt: Sequence[GroundTruthPair],
           ledger: CoverageLedger, rng: random.Random,
           cfg: EvolutionConfig) -> list[Individual]:
    """Apply each strategy independently with its probability, in listed order;
    fix-var (the only query-issuing strategy) may emit several children."""
    gp = individual.pattern
    changed = False
    for prob, strategy in _LOCAL_STRATEGIES:
        if rng.random() < prob:
            out = strategy(gp, rng)
            if out is not None:
                gp = out
                changed = True
    if gp.triples and rng.random() < cfg.p_fix_var:
        children = fix_var(gp, endpoint, gt, ledger, rng)
        if children:
            return [Individual(c) for c in children]
    if changed:
        return [Individual(gp)]
    return [individual]


# ---------------------------------------------------------------------------
# Selection and generation loop


def fit_to_live(individual: Individual) -> bool:
    gp = individual.pattern
    return (1 <= gp.length <= MAX_PATTERN_LENGTH
            and gp.variable_count <= MAX_VARS
            and gp.is_complete and gp.is_connected)


def _evaluate_all(individuals: list[Individual], endpoint,
                  gt: Sequence[GroundTruthPair], ledger: CoverageLedger,
                  scored: dict) -> None:
    """Score each unscored individual. One whose pattern `scored` holds takes
    the pattern object, evaluation and fitness of the individual held there,
    with no query: within a run the GT and the ledger are fixed. A hard
    timeout, which may be a transient remote 5xx, is not held."""
    for ind in individuals:
        if ind.fitness is not None:
            continue
        first = scored.get(ind.pattern)
        if first is not None:
            ind.pattern, ind.evaluation, ind.fitness = (
                first.pattern, first.evaluation, first.fitness)
            continue
        ind.evaluation, ind.fitness = evaluate(endpoint, ind.pattern, gt, ledger)
        if ind.fitness.timeout_penalty != _STATUS_PENALTY[HARD_TIMEOUT]:
            scored[ind.pattern] = ind


def tournament(pool: list[Individual], k: int, rng: random.Random) -> Individual:
    k = min(k, len(pool))
    contenders = [pool[rng.randrange(len(pool))] for _ in range(k)]
    return max(contenders, key=lambda ind: ind.fitness.key())


def next_generation(offspring: list[Individual], hof: HallOfFame,
                    cfg: EvolutionConfig, rng: random.Random, endpoint,
                    gt: Sequence[GroundTruthPair],
                    ledger: CoverageLedger) -> list[Individual]:
    """Tournament winners plus fresh initial patterns and hall-of-fame returns."""
    n_hof = min(cfg.reintro_hof, len(hof))
    n_fresh = cfg.reintro_fresh
    n_win = max(0, cfg.population_size - n_fresh - n_hof)
    winners = [tournament(offspring, TOURNAMENT_SIZE, rng)
               for _ in range(n_win)]
    fresh = init_population(cfg, rng, endpoint, gt, ledger, size=n_fresh)
    returned = hof.best(n_hof)
    population = winners + fresh + returned
    return population[:cfg.population_size]


@dataclass
class LearnedPattern:
    pattern: GraphPattern
    fitness: FitnessTuple
    evaluation: PatternEvaluation
    run_index: int
    canonical_key = Individual.canonical_key  # derived from `pattern`, never stored


@dataclass
class RunRecord:
    run_index: int
    remains_before: float
    remains_after: float
    accepted: list[LearnedPattern]
    generations: int
    ledger: CoverageLedger  # after this run


@dataclass
class LearnResult:
    patterns: list[LearnedPattern]
    ledger: CoverageLedger
    runs: list[RunRecord]


def run_single(endpoint, gt: Sequence[GroundTruthPair], ledger: CoverageLedger,
               cfg: EvolutionConfig, rng: random.Random) -> HallOfFame:
    """One full evolutionary run; returns its hall of fame."""
    scored: dict[GraphPattern, Individual] = {}  # first scoring of each pattern
    population = init_population(cfg, rng, endpoint, gt, ledger)
    _evaluate_all(population, endpoint, gt, ledger, scored)
    hof = HallOfFame(cfg.hall_of_fame_size)
    hof.update(ind for ind in population if fit_to_live(ind))

    for _ in range(cfg.max_generations):
        offspring: list[Individual] = []
        clones = list(population)
        for i in range(0, len(clones) - 1, 2):
            if rng.random() < MATING_PROB:
                c1, c2 = mate(clones[i], clones[i + 1], rng)
                clones[i], clones[i + 1] = c1, c2
        for parent, current in zip(population, clones):
            mutants = mutate(current, endpoint, gt, ledger, rng, cfg)
            for m in mutants:
                if m is not parent and not fit_to_live(m):
                    # unfit child: the parent takes its place
                    offspring.append(parent)
                else:
                    offspring.append(m)
        _evaluate_all(offspring, endpoint, gt, ledger, scored)
        hof.update(ind for ind in offspring if fit_to_live(ind))
        population = next_generation(offspring, hof, cfg, rng, endpoint, gt, ledger)
        _evaluate_all(population, endpoint, gt, ledger, scored)
        hof.update(ind for ind in population if fit_to_live(ind))
    return hof


def best_first(patterns) -> list[LearnedPattern]:
    """Earlier runs first; within a run, the higher fitness first."""
    return sorted(patterns, key=lambda lp: (
        lp.run_index, [-v for v in lp.fitness.key()], lp.canonical_key))


def learn_runs(endpoint, gt: Sequence[GroundTruthPair], cfg: EvolutionConfig,
               ledger: CoverageLedger, start_run: int = 1,
               known_keys=()) -> Iterator[RunRecord]:
    """Multi-run driver from `ledger`: yields each finished run; a known or
    earlier key is skipped. A score is at most the remains, so no run starts
    once they are at most `score_threshold`, nor below `min_remains`."""
    if not gt:
        raise ValueError("ground truth must be non-empty")
    if len(ledger) != len(gt):
        raise ValueError("ledger has %d entries but the ground truth has %d pairs"
                         % (len(ledger), len(gt)))
    gt = encode_gt(endpoint, gt)  # once for every query of the session
    rng = random.Random(cfg.seed)
    seen = set(known_keys)
    for run_index in range(start_run, cfg.max_runs + 1):
        remains_before = ledger.remains()
        if remains_before < cfg.min_remains or remains_before <= cfg.score_threshold:
            return
        hof = run_single(endpoint, gt, ledger, cfg, rng)
        accepted: list[LearnedPattern] = []
        for ind in hof.best():
            if ind.fitness.score <= cfg.score_threshold:
                continue
            key = ind.canonical_key
            if key in seen:
                continue  # patterns from earlier runs are considered better
            seen.add(key)
            accepted.append(LearnedPattern(
                pattern=ind.pattern, fitness=ind.fitness, evaluation=ind.evaluation,
                run_index=run_index))
        ledger = ledger.updated([lp.evaluation.pv for lp in accepted])
        yield RunRecord(run_index=run_index, remains_before=remains_before,
                        remains_after=ledger.remains(), accepted=accepted,
                        generations=cfg.max_generations, ledger=ledger)


def learn(endpoint, gt: Sequence[GroundTruthPair], cfg: EvolutionConfig) -> LearnResult:
    """Every run of `learn_runs` from scratch, their patterns best first, and
    the last ledger."""
    ledger = CoverageLedger.zeros(len(gt))
    runs = list(learn_runs(endpoint, gt, cfg, ledger))
    return LearnResult(patterns=best_first(lp for rec in runs for lp in rec.accepted),
                       ledger=runs[-1].ledger if runs else ledger, runs=runs)
