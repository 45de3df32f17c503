//! Citation-based prestige (paper §3.1): the PageRank variant run on
//! each context's *induced* citation subgraph — "only citation
//! information between papers in the given context is used", so a paper
//! heavily cited from outside a context earns nothing inside it. This
//! restriction, combined with cross-context citation noise, is what
//! makes the in-context graphs sparse and the citation scores tie-heavy
//! (the paper's accuracy and separability findings).

use crate::config::EngineConfig;
use crate::context::{ContextId, ContextPaperSets};
use crate::prestige::{PrestigeScores, ScoreFunction};
use citegraph::{hits, pagerank, CitationGraph, HitsConfig};
use corpus::PaperId;
use std::collections::HashMap;

/// Map relative PageRank prominence `r` (multiples of the uniform
/// share) into [0, 1) as `r / (r + 1)`: a paper at the uniform share —
/// e.g. every member of an edgeless context graph — sits at 0.5, and
/// in-context citation hubs approach 1. This mirrors the effect of the
/// paper's `E1 = d` fixed point, where an uncited paper's score equals
/// the teleport constant (mid-scale, far from zero): whole contexts of
/// tied mid-scale scores pass moderate relevancy thresholds wholesale,
/// which is exactly how the citation function dilutes precision in the
/// paper's Figs 5.1–5.2.
fn squash_prominence(r: f64) -> f64 {
    (r / (r + 1.0)).clamp(0.0, 1.0)
}

/// Compute citation-based prestige for every context in `sets`.
pub fn citation_prestige(
    sets: &ContextPaperSets,
    graph: &CitationGraph,
    config: &EngineConfig,
) -> PrestigeScores {
    // `sets.contexts()` already iterates in ascending id order — the
    // deterministic population for the parallel map.
    let contexts: Vec<ContextId> = sets.contexts().collect();
    let computed: Vec<(ContextId, Vec<(PaperId, f64)>)> =
        crate::parallel_map(config.build_threads, &contexts, |&context| {
            (context, context_pagerank(sets, graph, config, context))
        });
    PrestigeScores::new(
        computed.into_iter().collect::<HashMap<_, _>>(),
        ScoreFunction::Citation,
    )
}

fn context_pagerank(
    sets: &ContextPaperSets,
    graph: &CitationGraph,
    config: &EngineConfig,
    context: ContextId,
) -> Vec<(PaperId, f64)> {
    let _span = obs::span("prestige.context_pagerank");
    let members: Vec<u32> = sets.members(context).iter().map(|p| p.0).collect();
    let (sub, node_map) = graph.induced_subgraph(&members);
    let result = pagerank(&sub, &config.pagerank);
    obs::observe_ns(
        "prestige.context_pagerank.iterations",
        result.iterations as u64,
    );
    obs::observe_ns("prestige.context_pagerank.members", members.len() as u64);
    obs::counter(
        "prestige.context_pagerank.converged_contexts",
        result.converged as u64,
    );
    if obs::trace_enabled() {
        obs::trace_instant(
            "prestige.context",
            vec![
                ("context".to_string(), context.index().into()),
                ("members".to_string(), members.len().into()),
                ("iterations".to_string(), (result.iterations as u64).into()),
                ("converged".to_string(), result.converged.into()),
            ],
        );
    }
    let n = node_map.len() as f64;
    node_map
        .into_iter()
        .zip(result.scores)
        .map(|(paper, p_mass)| {
            // Relative prominence vs the uniform share, log-squashed.
            (PaperId(paper), squash_prominence(p_mass * n))
        })
        .collect()
}

/// The HITS alternative §3.1 mentions ("PageRank and HITS algorithms
/// can be used in paper score computation"): per-context authority
/// scores. The paper's ref \[11\] found HITS and PageRank highly
/// correlated on the ACM SIGMOD Anthology — the ablation bench checks
/// the same on the synthetic corpus.
pub fn hits_citation_prestige(
    sets: &ContextPaperSets,
    graph: &CitationGraph,
    config: &EngineConfig,
) -> PrestigeScores {
    let contexts: Vec<ContextId> = sets.contexts().collect();
    let computed: Vec<(ContextId, Vec<(PaperId, f64)>)> =
        crate::parallel_map(config.build_threads, &contexts, |&context| {
            let members: Vec<u32> = sets.members(context).iter().map(|p| p.0).collect();
            let (sub, node_map) = graph.induced_subgraph(&members);
            let scores = hits(&sub, &HitsConfig::default());
            (
                context,
                node_map
                    .into_iter()
                    .zip(scores.authorities)
                    .map(|(p, a)| (PaperId(p), a))
                    .collect(),
            )
        });
    PrestigeScores::new(
        computed.into_iter().collect::<HashMap<_, _>>(),
        ScoreFunction::Citation,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextSetKind;
    use ontology::TermId;

    fn graph() -> CitationGraph {
        // 0..5; 1,2,3 cite 0; 4 cites 5 (outside-context pair).
        CitationGraph::from_edges(6, &[(1, 0), (2, 0), (3, 0), (4, 5)])
    }

    fn sets(members: &[(u32, &[u32])]) -> ContextPaperSets {
        let m = members
            .iter()
            .map(|&(c, ps)| (TermId(c), ps.iter().map(|&p| PaperId(p)).collect()))
            .collect();
        ContextPaperSets::new(m, ContextSetKind::PatternBased)
    }

    #[test]
    fn in_context_citations_count() {
        let s = sets(&[(0, &[0, 1, 2, 3])]);
        let p = citation_prestige(&s, &graph(), &EngineConfig::default());
        let cited = p.get(TermId(0), PaperId(0)).unwrap();
        let citer = p.get(TermId(0), PaperId(1)).unwrap();
        assert!(cited > citer, "cited paper outranks citers");
        assert!(cited > squash_prominence(1.0), "above the tie baseline");
    }

    #[test]
    fn out_of_context_citations_are_ignored() {
        // Context {0, 4}: 0's three citations come from outside, 4's
        // reference points outside → edgeless subgraph → all tied.
        let s = sets(&[(0, &[0, 4])]);
        let p = citation_prestige(&s, &graph(), &EngineConfig::default());
        let a = p.get(TermId(0), PaperId(0)).unwrap();
        let b = p.get(TermId(0), PaperId(4)).unwrap();
        assert!((a - b).abs() < 1e-9, "sparse context ⇒ ties: {a} vs {b}");
        assert!(
            (a - squash_prominence(1.0)).abs() < 1e-9,
            "tied scores sit at the uniform baseline: {a}"
        );
    }

    #[test]
    fn paper_scores_differ_across_contexts() {
        // The paper's motivating example: p cited heavily in c1, barely
        // in c2 → p more prestigious in c1.
        let s = sets(&[(1, &[0, 1, 2, 3]), (2, &[0, 4])]);
        let p = citation_prestige(&s, &graph(), &EngineConfig::default());
        let in_c1 = p.get(TermId(1), PaperId(0)).unwrap();
        let in_c2 = p.get(TermId(2), PaperId(0)).unwrap();
        assert!(
            in_c1 > in_c2,
            "same paper, more prestige where it is cited: {in_c1} vs {in_c2}"
        );
        // c1 distinguishes its members, c2 (edgeless) cannot.
        let others_c1 = p.get(TermId(1), PaperId(1)).unwrap();
        let others_c2 = p.get(TermId(2), PaperId(4)).unwrap();
        assert!(in_c1 > others_c1);
        assert!((in_c2 - others_c2).abs() < 1e-9);
    }

    #[test]
    fn hits_prestige_ranks_cited_papers_first() {
        let s = sets(&[(0, &[0, 1, 2, 3])]);
        let p = hits_citation_prestige(&s, &graph(), &EngineConfig::default());
        let cited = p.get(TermId(0), PaperId(0)).unwrap();
        let citer = p.get(TermId(0), PaperId(1)).unwrap();
        assert!(cited > citer);
        assert_eq!(cited, 1.0, "authorities are max-normalized");
    }

    #[test]
    fn hits_prestige_covers_all_members() {
        let s = sets(&[(0, &[0, 1, 2, 3, 4, 5])]);
        let p = hits_citation_prestige(&s, &graph(), &EngineConfig::default());
        assert_eq!(p.scores(TermId(0)).len(), 6);
    }

    #[test]
    fn every_member_gets_a_score() {
        let s = sets(&[(0, &[0, 1, 2, 3, 4, 5])]);
        let p = citation_prestige(&s, &graph(), &EngineConfig::default());
        assert_eq!(p.scores(TermId(0)).len(), 6);
        for &(_, score) in p.scores(TermId(0)).iter() {
            assert!((0.0..=1.0).contains(&score));
        }
    }
}
