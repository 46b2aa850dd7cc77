"""Seeded generator of the benchmark's planted stores and ground-truth files.

Four relation families are planted on disjoint quarters of the source-target
pairs, so a learner has to find four different patterns:

    rel      one hop          ?source :rel ?target
    relA/B   two hops         ?source :relA ?m . ?m :relB ?target
    inv      inverse edge     ?target :inv ?source
    relC/D   shared neighbour ?source :relC ?x . ?target :relD ?x

Popular hubs make decoys: sources and other nodes point at a few hubs with
decoy predicates, so degree baselines and sloppy patterns prefer the hubs.
Optional language-tagged literals (with escapes) load the parser.

Each family's pairs are split into training and held-out pairs, disjoint by
construction, so nothing is scored on the pairs it was trained on.

Run as a script to write one workload's files:

    python3 perfbench/datagen.py --workload learn-narrow --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import gzip
import os
import random
from dataclasses import dataclass

EX = "http://example.org/bench/"
FAMILIES = ("one_hop", "two_hop", "inverse", "shared")
DECOY_PREDICATES = tuple("d%d" % i for i in range(6))
LANGS = ("en", "de", "fr-CA", "pt-BR")


@dataclass(frozen=True)
class DataSpec:
    n_pairs: int          # all planted pairs, over the four families
    n_heldout: int        # pairs kept out of training, for prediction
    n_train: int          # training pairs taken from the rest (0 = all of it)
    decoy_factor: int     # decoy triples per planted triple
    n_hubs: int = 4
    n_literals: int = 0
    gz: bool = False


@dataclass
class Dataset:
    store_path: str
    gt_path: str
    heldout_path: str
    n_triples: int        # distinct triples written to the store file
    train: list           # [(source IRI, target IRI)], in GT file order
    heldout: list


def _iri(name: str) -> str:
    return "<%s%s>" % (EX, name)


def _literal(rng: random.Random, i: int) -> str:
    # every value embeds i, so no two literals collapse after unescaping
    text = ('label %d \\"q%d\\" line\\nbreak\\ttab \\\\ caf\\u00E9 %s'
            % (i, rng.randrange(1000), "x" * rng.randrange(1, 12)))
    return '"%s"@%s' % (text, LANGS[i % len(LANGS)])


def _planted(family: str, j: int) -> list[tuple[str, str, str]]:
    s, t = _iri("src%d" % j), _iri("tgt%d" % j)
    if family == "one_hop":
        return [(s, _iri("rel"), t)]
    if family == "two_hop":
        m = _iri("mid%d" % j)
        return [(s, _iri("relA"), m), (m, _iri("relB"), t)]
    if family == "inverse":
        return [(t, _iri("inv"), s)]
    x = _iri("nb%d" % j)
    return [(s, _iri("relC"), x), (t, _iri("relD"), x)]


def generate(spec: DataSpec, seed: int, out_dir: str) -> Dataset:
    """Write store, training GT and held-out GT for one seed into out_dir."""
    rng = random.Random(seed)
    lines: list[str] = []
    seen: set[str] = set()

    def add(s: str, p: str, o: str) -> None:
        line = "%s %s %s .\n" % (s, p, o)
        if line not in seen:
            seen.add(line)
            lines.append(line)

    quarter = spec.n_pairs / len(FAMILIES)
    by_family: dict[str, list[int]] = {f: [] for f in FAMILIES}
    for j in range(spec.n_pairs):
        family = FAMILIES[min(int(j / quarter), len(FAMILIES) - 1)]
        by_family[family].append(j)
        for tr in _planted(family, j):
            add(*tr)
    n_planted = len(lines)

    hubs = [_iri("hub%d" % h) for h in range(spec.n_hubs)]
    others = [_iri("o%d" % i) for i in range(3 * spec.n_pairs)]
    decoys = [_iri(p) for p in DECOY_PREDICATES]
    # Kinds, predicates and hubs take turns, so every seed gives each
    # (predicate, hub) pair the same number of edges and only the endpoints
    # vary: query costs then depend little on the seed.
    i = 0
    while len(lines) < n_planted * (spec.decoy_factor + 1):
        kind, p = i % 4, decoys[i // 4 % len(decoys)]
        hub = hubs[i // (4 * len(decoys)) % len(hubs)]
        if kind < 2:
            add(_iri("src%d" % rng.randrange(spec.n_pairs)), p, hub)
        elif kind == 2:
            add(rng.choice(others), p, hub)
        else:
            add(rng.choice(others), p, rng.choice(others))
        i += 1
    label = _iri("label")
    for i in range(spec.n_literals):
        node = (_iri("tgt%d" % rng.randrange(spec.n_pairs)) if i % 2
                else rng.choice(others))
        add(node, label, _literal(rng, i))

    # stratified split: each family gives the same share of held-out pairs
    heldout_idx: list[int] = []
    rest_idx: list[int] = []
    for f, idx in enumerate(by_family.values()):
        idx = list(idx)
        rng.shuffle(idx)
        k = spec.n_heldout // len(FAMILIES) + (f < spec.n_heldout % len(FAMILIES))
        heldout_idx += idx[:k]
        rest_idx += idx[k:]
    rest_idx.sort()
    if spec.n_train:
        rest_idx = sorted(rng.sample(rest_idx, spec.n_train))
    heldout_idx.sort()

    def pairs(idx):
        return [(EX + "src%d" % j, EX + "tgt%d" % j) for j in idx]

    os.makedirs(out_dir, exist_ok=True)
    store_path = os.path.join(out_dir, "store.nt.gz" if spec.gz else "store.nt")
    data = "".join(lines).encode("utf-8")
    if spec.gz:
        data = gzip.compress(data, compresslevel=6, mtime=0)
    with open(store_path, "wb") as fh:
        fh.write(data)
    train, heldout = pairs(rest_idx), pairs(heldout_idx)
    gt_path = os.path.join(out_dir, "gt.tsv")
    heldout_path = os.path.join(out_dir, "heldout.tsv")
    for path, rows in ((gt_path, train), (heldout_path, heldout)):
        with open(path, "w") as fh:
            fh.write("@prefix ex: <%s> .\n" % EX)
            fh.writelines("ex:%s\t<%s>\n" % (s[len(EX):], t) for s, t in rows)
    return Dataset(store_path, gt_path, heldout_path, len(lines), train, heldout)


def main() -> None:
    from run import _import_library
    _import_library()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    ds = generate(WORKLOADS[args.workload].data, args.seed, args.out)
    print("%s: %d triples, %d train pairs, %d held-out pairs"
          % (ds.store_path, ds.n_triples, len(ds.train), len(ds.heldout)))


if __name__ == "__main__":
    main()
