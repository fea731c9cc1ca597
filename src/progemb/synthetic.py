"""Synthetic clustered retrieval data for benchmarks and end-to-end tests.

Each cluster owns a disjoint word pool; a passage is a random draw from its
cluster's pool plus a few shared filler words, and a query is a fresh subset
of one passage's cluster words. Retrieval is solvable exactly: the query's
source passage is the only gallery item containing all its words. Label
noise swaps a training query's positive for a passage from another cluster
while the held-out relevance labels keep pointing at the true source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Passage

__all__ = ["SyntheticQuery", "SyntheticData", "make_clustered_corpus"]


@dataclass(frozen=True)
class SyntheticQuery:
    query_id: str
    text: str
    positive_id: str
    source_id: str

    @property
    def noisy(self) -> bool:
        return self.positive_id != self.source_id


@dataclass
class SyntheticData:
    passages: list[Passage]
    clusters: list[int]
    train: list[SyntheticQuery]
    heldout: list[SyntheticQuery]

    def qrels(self) -> dict[str, dict[str, int]]:
        """Held-out judgments: each query's true source passage, grade 1."""
        return {q.query_id: {q.source_id: 1} for q in self.heldout}


def make_clustered_corpus(
    n_clusters: int = 8,
    gallery_size: int = 2000,
    n_train: int = 1600,
    n_heldout: int = 200,
    *,
    words_per_cluster: int = 50,
    shared_words: int = 10,
    passage_words: int = 12,
    passage_shared: int = 2,
    query_words: int = 5,
    query_shared: int = 0,
    noise_rate: float = 0.0,
    seed: int = 0,
) -> SyntheticData:
    """Build a clustered gallery with train and held-out query sets.

    Clusters are balanced across the gallery (passage i belongs to cluster
    i mod n_clusters). Query sources are sampled without replacement, so no
    passage is the positive of two training queries. noise_rate is the
    probability that a training pair's positive is replaced by a passage
    from a different cluster. Fully deterministic for a given seed.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if gallery_size < n_clusters:
        raise ValueError("gallery_size must be >= n_clusters")
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError(f"noise_rate must be in [0, 1], got {noise_rate}")
    if noise_rate > 0.0 and n_clusters < 2:
        raise ValueError("label noise needs at least 2 clusters")
    if passage_words > words_per_cluster:
        raise ValueError("passage_words cannot exceed words_per_cluster")
    if passage_shared > shared_words:
        raise ValueError("passage_shared cannot exceed shared_words")
    if query_words > passage_words:
        raise ValueError("query_words cannot exceed passage_words")
    if query_shared > passage_shared:
        raise ValueError("query_shared cannot exceed passage_shared")
    if n_train > gallery_size or n_heldout > gallery_size:
        raise ValueError("query counts cannot exceed gallery_size")

    rng = np.random.default_rng(seed)
    pools = [
        [f"c{k}w{j}" for j in range(words_per_cluster)] for k in range(n_clusters)
    ]
    fillers = [f"sw{j}" for j in range(shared_words)]

    width = max(4, len(str(gallery_size - 1)))
    passages: list[Passage] = []
    clusters: list[int] = []
    passage_core: list[list[str]] = []
    passage_fill: list[list[str]] = []
    for i in range(gallery_size):
        k = i % n_clusters
        core = [pools[k][j] for j in rng.choice(words_per_cluster, passage_words, replace=False)]
        fill = (
            [fillers[j] for j in rng.choice(shared_words, passage_shared, replace=False)]
            if passage_shared
            else []
        )
        passages.append(
            Passage(
                passage_id=f"p{i:0{width}d}",
                text=" ".join(core + fill),
                source_doc=f"cluster{k}",
            )
        )
        clusters.append(k)
        passage_core.append(core)
        passage_fill.append(fill)

    def draw_queries(prefix: str, count: int, noise: float) -> list[SyntheticQuery]:
        sources = rng.choice(gallery_size, size=count, replace=False)
        out = []
        for i, src in enumerate(int(s) for s in sources):
            words = [
                passage_core[src][j]
                for j in rng.choice(passage_words, query_words, replace=False)
            ]
            if query_shared:
                words += [
                    passage_fill[src][j]
                    for j in rng.choice(passage_shared, query_shared, replace=False)
                ]
            positive = passages[src].passage_id
            if noise > 0.0 and rng.random() < noise:
                # draw until the impostor sits in a different cluster
                while True:
                    alt = int(rng.integers(0, gallery_size))
                    if clusters[alt] != clusters[src]:
                        positive = passages[alt].passage_id
                        break
            out.append(
                SyntheticQuery(
                    query_id=f"{prefix}{i:0{width}d}",
                    text=" ".join(words),
                    positive_id=positive,
                    source_id=passages[src].passage_id,
                )
            )
        return out

    train = draw_queries("q", n_train, noise_rate)
    heldout = draw_queries("h", n_heldout, 0.0)
    return SyntheticData(
        passages=passages, clusters=clusters, train=train, heldout=heldout
    )
