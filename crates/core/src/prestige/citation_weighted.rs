//! The paper's §7 future-work variant of the citation-based score:
//! "instead of omitting relationships from different contexts during
//! prestige score computations, we can assign weights to these
//! relationships. […] If c2 is not hierarchically related to c1,
//! assign the smallest weight. If c2 is hierarchically related to c1,
//! assign a higher weight. If pa is in c1, assign the highest weight."
//!
//! Realization: in-context citations keep driving a PageRank over the
//! member subgraph (the "highest weight" relationships — the walk
//! itself), while citations arriving from *outside* the context bias
//! the teleport vector, weighted by how hierarchically related the
//! external citer's contexts are (parent/child member → `related`,
//! anything else → `unrelated`). This is a personalized PageRank in
//! the style of Topic-Sensitive PageRank (the paper's ref \[17\], which
//! §6 explicitly compares against), and it degrades gracefully: with
//! zero external weights it reduces to the plain §3.1 function.

use crate::config::EngineConfig;
use crate::context::{ContextId, ContextPaperSets};
use crate::prestige::{PrestigeScores, ScoreFunction};
use citegraph::pagerank::pagerank_personalized;
use citegraph::CitationGraph;
use corpus::PaperId;
use ontology::Ontology;
use std::collections::HashMap;

/// The §7 relationship weights for *external* citers; in-context
/// citations are the walk itself (the "highest" weight).
#[derive(Debug, Clone)]
pub struct CrossContextWeights {
    /// Teleport bias contributed per citation from a member of a parent
    /// or child context ("higher" weight).
    pub related: f64,
    /// Teleport bias per citation from anywhere else ("smallest").
    pub unrelated: f64,
}

impl Default for CrossContextWeights {
    fn default() -> Self {
        Self {
            related: 0.5,
            unrelated: 0.1,
        }
    }
}

/// Compute the §7 weighted citation prestige for every context.
pub fn weighted_citation_prestige(
    ontology: &Ontology,
    sets: &ContextPaperSets,
    graph: &CitationGraph,
    config: &EngineConfig,
    weights: &CrossContextWeights,
) -> PrestigeScores {
    let contexts: Vec<ContextId> = sets.contexts().collect();
    let computed: Vec<(ContextId, Vec<(PaperId, f64)>)> =
        crate::parallel_map(config.build_threads, &contexts, |&context| {
            (
                context,
                context_weighted_pagerank(ontology, sets, graph, config, weights, context),
            )
        });
    PrestigeScores::new(
        computed.into_iter().collect::<HashMap<_, _>>(),
        ScoreFunction::Citation,
    )
}

fn context_weighted_pagerank(
    ontology: &Ontology,
    sets: &ContextPaperSets,
    graph: &CitationGraph,
    config: &EngineConfig,
    weights: &CrossContextWeights,
    context: ContextId,
) -> Vec<(PaperId, f64)> {
    let members: Vec<u32> = sets.members(context).iter().map(|p| p.0).collect();
    let (sub, node_map) = graph.induced_subgraph(&members);
    let related_contexts: Vec<ContextId> = ontology
        .parents(context)
        .iter()
        .chain(ontology.children(context))
        .copied()
        .collect();

    // Teleport bias: 1 (uniform base) + weighted external endorsements.
    let bias: Vec<f64> = node_map
        .iter()
        .map(|&m| {
            let mut b = 1.0;
            for &citer in graph.citations(m) {
                let citer = PaperId(citer);
                if sets.is_member(context, citer) {
                    continue; // in-context citations are graph edges
                }
                if related_contexts.iter().any(|&rc| sets.is_member(rc, citer)) {
                    b += weights.related;
                } else {
                    b += weights.unrelated;
                }
            }
            b
        })
        .collect();

    let result = pagerank_personalized(&sub, &config.pagerank, &bias);
    let n = node_map.len() as f64;
    node_map
        .into_iter()
        .zip(result.scores)
        .map(|(paper, p_mass)| {
            let r = p_mass * n;
            (PaperId(paper), (r / (r + 1.0)).clamp(0.0, 1.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextSetKind;
    use ontology::{Term, TermId};

    fn chain_ontology() -> Ontology {
        let t = |acc: &str, parents: Vec<u32>| Term {
            accession: acc.into(),
            name: acc.into(),
            namespace: "t".into(),
            parents: parents.into_iter().map(TermId).collect(),
        };
        Ontology::new(vec![t("a", vec![]), t("b", vec![0]), t("c", vec![1])]).unwrap()
    }

    fn sets(members: &[(u32, &[u32])]) -> ContextPaperSets {
        let m = members
            .iter()
            .map(|&(c, ps)| (TermId(c), ps.iter().map(|&p| PaperId(p)).collect()))
            .collect();
        ContextPaperSets::new(m, ContextSetKind::PatternBased)
    }

    #[test]
    fn external_related_citations_now_count() {
        // Papers 0,1 in context 1 (child of 0); papers 2,3 in context 0
        // cite paper 0. The plain function sees an edgeless subgraph for
        // context 1; the weighted one credits paper 0.
        let onto = chain_ontology();
        let g = CitationGraph::from_edges(4, &[(2, 0), (3, 0)]);
        let s = sets(&[(1, &[0, 1]), (0, &[0, 1, 2, 3])]);
        let cfg = EngineConfig::default();
        let plain = crate::prestige::citation::citation_prestige(&s, &g, &cfg);
        let weighted =
            weighted_citation_prestige(&onto, &s, &g, &cfg, &CrossContextWeights::default());
        let p0 = plain.get(TermId(1), PaperId(0)).unwrap();
        let p1 = plain.get(TermId(1), PaperId(1)).unwrap();
        assert!((p0 - p1).abs() < 1e-9, "plain function ties");
        let w0 = weighted.get(TermId(1), PaperId(0)).unwrap();
        let w1 = weighted.get(TermId(1), PaperId(1)).unwrap();
        assert!(w0 > w1, "weighted credits external citations: {w0} vs {w1}");
    }

    #[test]
    fn unrelated_citers_count_less_than_related_ones() {
        // Context 2 holds {0, 5}. Paper 0 is cited by paper 1 (member of
        // the parent context 1 → related); paper 5 by paper 2 (member of
        // the grandparent only → unrelated, the smallest weight).
        let onto = chain_ontology();
        let g = CitationGraph::from_edges(6, &[(1, 0), (2, 5)]);
        let s = sets(&[(2, &[0, 5]), (1, &[1]), (0, &[2])]);
        let cfg = EngineConfig::default();
        let weighted =
            weighted_citation_prestige(&onto, &s, &g, &cfg, &CrossContextWeights::default());
        let related_boosted = weighted.get(TermId(2), PaperId(0)).unwrap();
        let unrelated_boosted = weighted.get(TermId(2), PaperId(5)).unwrap();
        assert!(
            related_boosted > unrelated_boosted,
            "{related_boosted} vs {unrelated_boosted}"
        );
    }

    #[test]
    fn zero_weights_reduce_to_plain_function() {
        let onto = chain_ontology();
        let g = CitationGraph::from_edges(6, &[(1, 0), (2, 0), (4, 3), (5, 3)]);
        let s = sets(&[(0, &[0, 1, 2, 3, 4, 5]), (1, &[0, 3])]);
        let cfg = EngineConfig::default();
        let plain = crate::prestige::citation::citation_prestige(&s, &g, &cfg);
        let zeroed = weighted_citation_prestige(
            &onto,
            &s,
            &g,
            &cfg,
            &CrossContextWeights {
                related: 0.0,
                unrelated: 0.0,
            },
        );
        for c in [TermId(0), TermId(1)] {
            for (&(pa, sa), &(pb, sb)) in plain.scores(c).iter().zip(zeroed.scores(c).iter()) {
                assert_eq!(pa, pb);
                assert!((sa - sb).abs() < 1e-9, "{sa} vs {sb} in {c}");
            }
        }
    }

    #[test]
    fn all_scores_in_unit_range() {
        let onto = chain_ontology();
        let g = CitationGraph::from_edges(6, &[(1, 0), (2, 0), (3, 4), (5, 4)]);
        let s = sets(&[(0, &[0, 1, 2, 3, 4, 5]), (1, &[0, 4]), (2, &[4])]);
        let weighted = weighted_citation_prestige(
            &onto,
            &s,
            &g,
            &EngineConfig::default(),
            &CrossContextWeights::default(),
        );
        for c in [TermId(0), TermId(1), TermId(2)] {
            for &(_, v) in weighted.scores(c).iter() {
                assert!((0.0..=1.0).contains(&v) && v.is_finite());
            }
        }
    }

    #[test]
    fn every_member_scored_no_externals_leak() {
        let onto = chain_ontology();
        let g = CitationGraph::from_edges(4, &[(2, 0), (3, 1)]);
        let s = sets(&[(1, &[0, 1])]);
        let weighted = weighted_citation_prestige(
            &onto,
            &s,
            &g,
            &EngineConfig::default(),
            &CrossContextWeights::default(),
        );
        let scored: Vec<PaperId> = weighted.scores(TermId(1)).iter().map(|&(p, _)| p).collect();
        assert_eq!(scored, vec![PaperId(0), PaperId(1)]);
    }
}
