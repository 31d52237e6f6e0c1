"""Unit tests for the four evaluation workloads and the iteration samplers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.operators import Component, RunContext
from repro.core.signatures import compute_node_signatures
from repro.workloads import (
    DOMAIN_FREQUENCIES,
    WORKLOADS,
    IterationSpec,
    IterationType,
    build_iteration_plan,
    get_workload,
)
from repro.workloads.census import CensusConfig, CensusWorkload, generate_census_rows
from repro.workloads.genomics import GenomicsWorkload, generate_articles, generate_gene_db
from repro.workloads.mnist import MnistWorkload, generate_digit_images
from repro.workloads.nlp_ie import IEWorkload, generate_news_articles, generate_spouse_kb

CTX = RunContext(seed=0)
RNG = np.random.default_rng(0)


class TestIterationPlans:
    def test_frequencies_are_normalized_enough(self):
        for domain, freqs in DOMAIN_FREQUENCIES.items():
            assert sum(freqs.values()) == pytest.approx(1.0), domain

    def test_plan_starts_with_initial_run(self):
        plan = build_iteration_plan("social_sciences", 5)
        assert plan[0].index == 0
        assert plan[0].description == "initial run"
        assert len(plan) == 5

    def test_plan_deterministic_per_seed(self):
        a = build_iteration_plan("natural_sciences", 10, seed=3)
        b = build_iteration_plan("natural_sciences", 10, seed=3)
        c = build_iteration_plan("natural_sciences", 10, seed=4)
        assert [s.kind for s in a] == [s.kind for s in b]
        assert a != c or [s.kind for s in a] != [s.kind for s in c]

    def test_nlp_plan_is_dpr_only(self):
        plan = build_iteration_plan("nlp", 6)
        assert all(spec.kind == IterationType.DPR for spec in plan)
        assert len(plan) == 6

    def test_default_iteration_counts(self):
        assert len(build_iteration_plan("social_sciences")) == 10
        assert len(build_iteration_plan("nlp")) == 6

    def test_unknown_domain_rejected(self):
        with pytest.raises(KeyError):
            build_iteration_plan("astrology")


class TestRegistry:
    def test_all_four_workloads_registered(self):
        assert {"census", "genomics", "nlp", "mnist"} <= set(WORKLOADS)

    def test_get_workload_unknown(self):
        with pytest.raises(KeyError):
            get_workload("nope")


class TestGenerators:
    def test_census_rows_have_csv_lines(self):
        train, test = generate_census_rows(CTX, n_train=50, n_test=20, seed=1)
        assert len(train) == 50 and len(test) == 20
        assert train[0]["line"].count(",") == 8
        # Deterministic given the seed.
        again, _ = generate_census_rows(CTX, n_train=50, n_test=20, seed=1)
        assert train[0]["line"] == again[0]["line"]

    def test_census_labels_have_both_classes(self):
        train, _ = generate_census_rows(CTX, n_train=300, n_test=0, seed=0)
        labels = {row["line"].rsplit(",", 1)[-1] for row in train}
        assert labels == {"0", "1"}

    def test_gene_articles_mention_known_genes(self):
        articles, _ = generate_articles(CTX, n_articles=10, n_genes=10, seed=2)
        genes = {row["gene"] for row in generate_gene_db(CTX, n_genes=10)[0]}
        assert len(articles) == 10
        assert any(any(gene in article["text"] for gene in genes) for article in articles)

    def test_spouse_kb_pairs_are_unique_and_sorted(self):
        kb, _ = generate_spouse_kb(CTX, n_persons=20, n_pairs=8, seed=0)
        pairs = [(row["person_a"], row["person_b"]) for row in kb]
        assert len(pairs) == len(set(pairs))
        assert all(a <= b for a, b in pairs)

    def test_news_articles_split_into_train_and_test(self):
        train, test = generate_news_articles(CTX, n_articles=40, seed=0)
        assert len(train) + len(test) == 40
        assert len(test) >= 1

    def test_digit_images_have_pixels_and_binary_target(self):
        train, test = generate_digit_images(CTX, n_train=30, n_test=10, image_size=8, seed=0)
        assert len(train) == 30 and len(test) == 10
        assert train[0]["pixels"].shape == (64,)
        assert set(row["target"] for row in train) <= {0, 1}


def _iterate(workload, kinds):
    config = workload.initial_config()
    rng = np.random.default_rng(0)
    configs = [config]
    for index, kind in enumerate(kinds, start=1):
        config = workload.apply_iteration(config, IterationSpec(index=index, kind=kind), rng)
        configs.append(config)
    return configs


class TestWorkloadBuilders:
    @pytest.mark.parametrize("name", ["census", "genomics", "nlp", "mnist"])
    def test_build_produces_valid_dag_with_one_output(self, name):
        workload = get_workload(name)
        dag = workload.build(workload.initial_config()).compile()
        assert len(dag.outputs) == 1
        sliced = dag.sliced_to_outputs()
        assert len(sliced) <= len(dag)
        components = {sliced.node(n).component for n in sliced.node_names}
        assert Component.PPR in components and Component.LI in components

    @pytest.mark.parametrize("name", ["census", "genomics", "nlp", "mnist"])
    def test_iteration_changes_some_node_signature(self, name):
        workload = get_workload(name)
        kinds = [IterationType.DPR, IterationType.LI, IterationType.PPR]
        if name == "nlp":
            kinds = [IterationType.DPR, IterationType.DPR, IterationType.DPR]
        configs = _iterate(workload, kinds)
        previous = compute_node_signatures(workload.build(configs[0]).compile().sliced_to_outputs())
        for config in configs[1:]:
            current = compute_node_signatures(workload.build(config).compile().sliced_to_outputs())
            assert set(current.values()) != set(previous.values())
            previous = current

    @pytest.mark.parametrize("name", ["census", "genomics", "nlp", "mnist"])
    def test_iteration_zero_is_identity(self, name):
        workload = get_workload(name)
        config = workload.initial_config()
        unchanged = workload.apply_iteration(config, IterationSpec(index=0, kind=IterationType.DPR), RNG)
        assert unchanged == config

    @pytest.mark.parametrize("name", ["census", "genomics", "nlp", "mnist"])
    def test_characteristics_match_table2(self, name):
        characteristics = get_workload(name).characteristics()
        assert characteristics.supported_by_helix
        if name in ("genomics", "mnist"):
            assert not characteristics.supported_by_deepdive
        if name == "nlp":
            assert not characteristics.supported_by_keystoneml

    def test_census_scaling(self):
        config = CensusConfig(n_train=100, n_test=50).scaled(10)
        assert config.n_train == 1000 and config.n_test == 500

    def test_census_ppr_iteration_only_touches_reducer(self):
        workload = get_workload("census")
        base = workload.initial_config()
        changed = workload.apply_iteration(base, IterationSpec(index=1, kind=IterationType.PPR), RNG)
        before = compute_node_signatures(workload.build(base).compile().sliced_to_outputs())
        after = compute_node_signatures(workload.build(changed).compile().sliced_to_outputs())
        different = {name for name in before if before[name] != after.get(name)}
        assert different == {"checked"}

    def test_census_li_iteration_does_not_touch_dpr(self):
        workload = get_workload("census")
        base = workload.initial_config()
        rng = np.random.default_rng(1)
        changed = workload.apply_iteration(base, IterationSpec(index=1, kind=IterationType.LI), rng)
        before = compute_node_signatures(workload.build(base).compile().sliced_to_outputs())
        after = compute_node_signatures(workload.build(changed).compile().sliced_to_outputs())
        assert before["income"] == after["income"]
        assert before["predictions"] != after["predictions"]

    def test_census_raceext_declared_but_pruned(self):
        workload = get_workload("census")
        dag = workload.build(workload.initial_config()).compile()
        assert "raceExt" in dag
        assert "raceExt" not in dag.sliced_to_outputs()
