"""The Genomics workload: gene-function discovery from scientific literature.

This reproduces Example 1 of the paper: split input articles into words,
identify gene mentions by joining with a genomic knowledge base, learn vector
representations for the genes (word2vec in the paper; a co-occurrence/SVD
embedding here), and cluster the gene vectors with k-means to find
functionally related genes.  The workflow has multiple data sources, a
one-to-many input-to-example mapping, no hand-engineered features, and two
*unsupervised* learning steps — the characteristics Table 2 reports.

The PubMed-scale corpus is replaced by a synthetic article generator that
plants co-mention structure: genes belonging to the same latent functional
group co-occur in sentences far more often than genes from different groups,
so the embedding + clustering pipeline can actually recover the groups (and
the PPR reducer can measure how well).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.data import DataCollection, ElementKind, Record, Split
from ..core.operators import Component, DataSource, Operator, Reducer, RunContext, Scanner
from ..core.workflow import Workflow
from ..ml.embeddings import CooccurrenceEmbedding, RandomProjectionEmbedding
from ..ml.kmeans import KMeans
from ..ml.metrics import cluster_sizes, silhouette_score
from ..ml.text import remove_stop_words, tokenize
from .base import Workload, WorkloadCharacteristics, register
from .iterations import IterationSpec, IterationType

__all__ = [
    "GenomicsConfig",
    "GenomicsWorkload",
    "generate_articles",
    "generate_gene_db",
    "GeneMentionJoin",
    "EmbeddingLearner",
    "GeneClusterLearner",
]

_FILLER_WORDS = (
    "study expression analysis pathway protein cell tissue results suggest role "
    "function signal response binding activity level increase decrease observed "
    "patients samples significant association network model data evidence"
).split()

_DISEASES = ("carcinoma", "diabetes", "alzheimers", "fibrosis", "anemia", "lymphoma")


def _gene_name(index: int) -> str:
    return f"gene{index:03d}"


def generate_gene_db(
    context: RunContext, n_genes: int = 30, seed: int = 0
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Generate the genomic knowledge base: one record per known gene symbol."""
    del context, seed  # deterministic by construction
    rows = [{"gene": _gene_name(i), "group": i % 5} for i in range(n_genes)]
    return rows, []


def generate_articles(
    context: RunContext,
    n_articles: int = 100,
    n_genes: int = 30,
    n_groups: int = 5,
    sentences_per_article: int = 5,
    seed: int = 0,
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Generate synthetic articles whose sentences co-mention genes of one functional group."""
    del context
    rng = np.random.default_rng(seed)
    groups: List[List[str]] = [[] for _ in range(n_groups)]
    for index in range(n_genes):
        groups[index % n_groups].append(_gene_name(index))
    articles = []
    for doc_id in range(int(n_articles)):
        group = groups[int(rng.integers(n_groups))]
        sentences = []
        for _ in range(sentences_per_article):
            mentioned = list(rng.choice(group, size=min(2, len(group)), replace=False))
            filler = list(rng.choice(_FILLER_WORDS, size=6))
            disease = [_DISEASES[int(rng.integers(len(_DISEASES)))]]
            words = mentioned + filler + disease
            rng.shuffle(words)
            sentences.append(" ".join(words) + ".")
        articles.append({"doc_id": doc_id, "text": " ".join(sentences)})
    return articles, []


@dataclass(frozen=True)
class GenomicsConfig:
    """Configuration of the genomics workflow at one iteration."""

    n_articles: int = 100
    n_genes: int = 30
    n_groups: int = 5
    sentences_per_article: int = 5
    data_seed: int = 0
    corpus_scale: float = 1.0
    remove_stop_words: bool = True
    embedding_algorithm: str = "cooc"
    embedding_dims: int = 16
    window: int = 4
    n_clusters: int = 5
    ppr_metric: str = "sizes"

    def scaled(self, factor: float) -> "GenomicsConfig":
        return replace(self, n_articles=int(self.n_articles * factor))

    @property
    def effective_articles(self) -> int:
        return max(10, int(self.n_articles * self.corpus_scale))


# ---------------------------------------------------------------------------
# Workload-specific operators
# ---------------------------------------------------------------------------
class TokenizeScanner(Scanner):
    """Tokenize each article into a record carrying its token list."""

    def __init__(self, filter_stop_words: bool = True):
        self.filter_stop_words = filter_stop_words
        super().__init__(None, name="tokenize")

    def config(self) -> Dict[str, Any]:
        return {"filter_stop_words": self.filter_stop_words}

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        return 3e-6 * (sum(input_sizes) + 1)

    def scan(self, record: Record) -> Iterable[Record]:
        tokens = tokenize(str(record.get("text", "")))
        if self.filter_stop_words:
            tokens = remove_stop_words(tokens)
        return [record.with_fields(tokens=tuple(tokens))]


class GeneMentionJoin(Operator):
    """Join tokenized articles with the gene knowledge base.

    Produces one record per (article, mentioned gene) pair — the one-to-many
    input-to-example mapping of this workload.
    """

    component = Component.DPR

    def config(self) -> Dict[str, Any]:
        return {}

    def run(self, inputs: Sequence[Any], context: RunContext) -> DataCollection:
        token_docs, gene_db = inputs
        known = {str(record.get("gene")) for record in gene_db}
        mentions: List[Record] = []
        for record in token_docs:
            tokens = record.get("tokens", ())
            for gene in sorted(set(tokens) & known):
                mentions.append(record.with_fields(gene=gene))
        return DataCollection("gene_mentions", mentions, kind=ElementKind.RECORD)


class EmbeddingLearner(Operator):
    """Learn entity embeddings from the tokenized corpus (word2vec stand-in).

    Output is a dictionary with the fitted embedding model, the gene
    vocabulary observed in the mentions, and the per-gene vectors.
    """

    component = Component.LI

    def __init__(self, algorithm: str = "cooc", dimensions: int = 16, window: int = 4):
        if algorithm not in ("cooc", "randproj"):
            raise ValueError(f"unknown embedding algorithm: {algorithm!r}")
        self.algorithm = algorithm
        self.dimensions = dimensions
        self.window = window

    def config(self) -> Dict[str, Any]:
        return {"algorithm": self.algorithm, "dimensions": self.dimensions, "window": self.window}

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        return 5e-5 * (sum(input_sizes) + 1)

    def run(self, inputs: Sequence[Any], context: RunContext) -> Dict[str, Any]:
        token_docs, mentions = inputs
        documents = [list(record.get("tokens", ())) for record in token_docs]
        if self.algorithm == "cooc":
            model = CooccurrenceEmbedding(dimensions=self.dimensions, window=self.window)
        else:
            model = RandomProjectionEmbedding(dimensions=self.dimensions, window=self.window)
        model.set_seed(context.seed)
        model.fit(documents)
        genes = sorted({str(record.get("gene")) for record in mentions})
        vectors = {gene: model.vector(gene) for gene in genes}
        return {"model": model, "genes": genes, "vectors": vectors}

    @staticmethod
    def matrix(result: Mapping[str, Any]) -> Tuple[List[str], np.ndarray]:
        genes = list(result["genes"])
        if not genes:
            return genes, np.zeros((0, 1))
        return genes, np.vstack([result["vectors"][gene] for gene in genes])


class GeneClusterLearner(Operator):
    """Cluster gene embedding vectors with k-means."""

    component = Component.LI

    def __init__(self, n_clusters: int = 5):
        self.n_clusters = n_clusters

    def config(self) -> Dict[str, Any]:
        return {"n_clusters": self.n_clusters}

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        return 2e-5 * (sum(input_sizes) + 1)

    def run(self, inputs: Sequence[Any], context: RunContext) -> Dict[str, Any]:
        (embedding_result,) = inputs
        genes, matrix = EmbeddingLearner.matrix(embedding_result)
        model = KMeans(n_clusters=self.n_clusters, seed=context.seed)
        if len(genes) == 0:
            return {"model": model, "assignments": {}, "matrix": matrix, "genes": genes}
        model.fit(matrix)
        labels = model.predict(matrix)
        assignments = {gene: int(label) for gene, label in zip(genes, labels)}
        return {"model": model, "assignments": assignments, "matrix": matrix, "genes": genes}


def _cluster_report(collection: DataCollection, metric: str = "sizes") -> Dict[str, Any]:
    """PPR reducer: summarize the clustering (sizes, inertia or silhouette)."""
    if len(collection) == 0:
        return {"n_genes": 0}
    result = collection[0]
    assignments = result.get("assignments", {}) if isinstance(result, dict) else {}
    matrix = result.get("matrix") if isinstance(result, dict) else None
    report: Dict[str, Any] = {"n_genes": len(assignments)}
    labels = list(assignments.values())
    if metric == "sizes" or not labels:
        report["cluster_sizes"] = cluster_sizes(labels) if labels else {}
    elif metric == "silhouette" and matrix is not None:
        report["silhouette"] = silhouette_score(np.asarray(matrix), labels)
    elif metric == "inertia":
        model = result.get("model")
        report["inertia"] = float(getattr(model, "inertia_", 0.0))
    return report


class GenomicsWorkload(Workload):
    """Builder + iteration model for the genomics workflow."""

    name = "genomics"
    domain = "natural_sciences"

    def characteristics(self) -> WorkloadCharacteristics:
        return WorkloadCharacteristics(
            name="Genomics",
            domain=self.domain,
            application_domain="Natural Sciences",
            num_data_sources="Multiple",
            input_to_example="One-to-Many",
            feature_granularity="N/A",
            learning_task="Unsupervised",
            supported_by_helix=True,
            supported_by_keystoneml=True,
            supported_by_deepdive=False,
        )

    def initial_config(self, scale: float = 1.0, seed: int = 0) -> GenomicsConfig:
        return GenomicsConfig(data_seed=seed).scaled(scale)

    def apply_iteration(
        self, config: GenomicsConfig, spec: IterationSpec, rng: np.random.Generator
    ) -> GenomicsConfig:
        if spec.index == 0:
            return config
        if spec.kind == IterationType.DPR:
            action = int(rng.integers(3))
            if action == 0:
                # Expand or shrink the literature corpus (Example 1, change (i)).
                new_scale = 1.25 if config.corpus_scale <= 1.0 else 0.8
                return replace(config, corpus_scale=new_scale)
            if action == 1:
                # Change tokenization (Example 1, change (iii)).
                return replace(config, remove_stop_words=not config.remove_stop_words)
            return replace(config, window=3 if config.window != 3 else 5)
        if spec.kind == IterationType.LI:
            if int(rng.integers(2)) == 0:
                # Change the embedding algorithm (word2vec -> LINE, change (iv)).
                new_algorithm = "randproj" if config.embedding_algorithm == "cooc" else "cooc"
                return replace(config, embedding_algorithm=new_algorithm)
            # Tweak the number of clusters (change (v)).
            return replace(config, n_clusters=4 if config.n_clusters != 4 else 6)
        cycle = {"sizes": "silhouette", "silhouette": "inertia", "inertia": "sizes"}
        return replace(config, ppr_metric=cycle.get(config.ppr_metric, "sizes"))

    def build(self, config: GenomicsConfig) -> Workflow:
        wf = Workflow("genomics")
        wf.data_source(
            "articles",
            DataSource(
                generator=generate_articles,
                params={
                    "n_articles": config.effective_articles,
                    "n_genes": config.n_genes,
                    "n_groups": config.n_groups,
                    "sentences_per_article": config.sentences_per_article,
                    "seed": config.data_seed,
                },
            ),
        )
        wf.data_source(
            "gene_db",
            DataSource(generator=generate_gene_db, params={"n_genes": config.n_genes}),
        )
        wf.scan("tokens", "articles", TokenizeScanner(filter_stop_words=config.remove_stop_words))
        wf.node("gene_mentions", GeneMentionJoin(), parents=["tokens", "gene_db"])
        wf.node(
            "embeddings",
            EmbeddingLearner(
                algorithm=config.embedding_algorithm,
                dimensions=config.embedding_dims,
                window=config.window,
            ),
            parents=["tokens", "gene_mentions"],
            component=Component.LI,
        )
        wf.node(
            "clusters",
            GeneClusterLearner(n_clusters=config.n_clusters),
            parents=["embeddings"],
            component=Component.LI,
        )
        wf.reducer(
            "cluster_report",
            "clusters",
            Reducer(
                _cluster_report,
                on_test_only=False,
                name="clusterReport",
                params={"metric": config.ppr_metric},
            ),
        )
        wf.output("cluster_report")
        return wf


register(GenomicsWorkload())
