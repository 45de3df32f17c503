//! Prestige scores: the paper's three §3 score functions and the
//! hierarchy max-propagation rule.

pub mod citation;
pub mod citation_weighted;
pub mod pattern;
pub mod text;

use crate::context::{ContextId, ContextPaperSets};
use corpus::PaperId;
use ontology::Ontology;
use std::collections::HashMap;

/// Which prestige score function produced a score set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoreFunction {
    /// §3.1 — per-context PageRank on the citation subgraph.
    Citation,
    /// §3.2 — similarity to the context's representative paper.
    Text,
    /// §3.3 — textual-pattern matching.
    Pattern,
}

impl ScoreFunction {
    /// Display name used in harness tables.
    pub fn name(self) -> &'static str {
        match self {
            Self::Citation => "citation",
            Self::Text => "text",
            Self::Pattern => "pattern",
        }
    }
}

/// Per-context prestige scores in [0, 1] (max-normalized per context).
///
/// Stored columnar: one CSR-style arena where `contexts` (ascending)
/// and `offsets` slice the shared `papers`/`values` columns, with
/// `papers` ascending within each context. The serve path walks the
/// two parallel columns of a context directly via [`columns`], in
/// ascending paper order, and looks each paper up among the query's
/// keyword candidates — no per-query hashing, no pointer chasing. The
/// map-shaped [`new`] constructor remains the builder API for the
/// offline score functions; it does not reject a paper listed twice or
/// past the corpus (the snapshot loader does), and the serve path
/// scores such a paper at its first entry or not at all.
///
/// [`columns`]: PrestigeScores::columns
/// [`new`]: PrestigeScores::new
#[derive(Debug, Clone)]
pub struct PrestigeScores {
    /// Contexts with entries, ascending.
    contexts: Vec<ContextId>,
    /// `offsets[i]..offsets[i+1]` slices the columns of `contexts[i]`.
    offsets: Vec<usize>,
    /// Paper column, ascending within each context's slice.
    papers: Vec<PaperId>,
    /// Score column, parallel to `papers`.
    values: Vec<f64>,
    /// The function that produced these scores.
    pub function: ScoreFunction,
}

impl PrestigeScores {
    /// Wrap raw per-context score lists (sorted by paper id internally).
    pub fn new(
        by_context: HashMap<ContextId, Vec<(PaperId, f64)>>,
        function: ScoreFunction,
    ) -> Self {
        let mut entries: Vec<(ContextId, Vec<(PaperId, f64)>)> = by_context.into_iter().collect();
        entries.sort_unstable_by_key(|&(c, _)| c);
        for (_, v) in entries.iter_mut() {
            v.sort_unstable_by_key(|&(p, _)| p);
        }
        let total: usize = entries.iter().map(|(_, v)| v.len()).sum();
        let mut contexts = Vec::with_capacity(entries.len());
        let mut offsets = Vec::with_capacity(entries.len() + 1);
        let mut papers = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        offsets.push(0);
        for (c, v) in entries {
            contexts.push(c);
            for (p, s) in v {
                papers.push(p);
                values.push(s);
            }
            offsets.push(papers.len());
        }
        Self {
            contexts,
            offsets,
            papers,
            values,
            function,
        }
    }

    /// Build directly from per-context columns (snapshot v2 load path).
    /// Columns already sorted by paper id load zero-copy into the arena;
    /// unsorted input (a hand-edited file) is sorted on read. Each
    /// `(papers, values)` pair must be equal-length — the persist layer
    /// validates that before calling.
    pub(crate) fn from_context_columns(
        mut cols: Vec<(ContextId, Vec<PaperId>, Vec<f64>)>,
        function: ScoreFunction,
    ) -> Self {
        cols.sort_unstable_by_key(|&(c, _, _)| c);
        let total: usize = cols.iter().map(|(_, p, _)| p.len()).sum();
        let mut contexts = Vec::with_capacity(cols.len());
        let mut offsets = Vec::with_capacity(cols.len() + 1);
        let mut papers = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        offsets.push(0);
        for (c, ps, vs) in cols {
            contexts.push(c);
            if ps.is_sorted() {
                papers.extend(ps);
                values.extend(vs);
            } else {
                let mut pairs: Vec<(PaperId, f64)> = ps.into_iter().zip(vs).collect();
                pairs.sort_unstable_by_key(|&(p, _)| p);
                for (p, s) in pairs {
                    papers.push(p);
                    values.push(s);
                }
            }
            offsets.push(papers.len());
        }
        Self {
            contexts,
            offsets,
            papers,
            values,
            function,
        }
    }

    fn range(&self, context: ContextId) -> Option<std::ops::Range<usize>> {
        let i = self.contexts.binary_search(&context).ok()?;
        Some(self.offsets[i]..self.offsets[i + 1])
    }

    /// The two parallel columns of one context — papers (ascending) and
    /// their scores. Empty slices if the context has no entries. This is
    /// the serve path's accessor: borrowed, allocation-free.
    pub fn columns(&self, context: ContextId) -> (&[PaperId], &[f64]) {
        match self.range(context) {
            Some(r) => (&self.papers[r.clone()], &self.values[r]),
            None => (&[], &[]),
        }
    }

    /// Scores of one context as owned pairs, sorted by paper id.
    /// Allocates — offline/test convenience; the serve path uses
    /// [`columns`](Self::columns).
    pub fn scores(&self, context: ContextId) -> Vec<(PaperId, f64)> {
        let (ps, vs) = self.columns(context);
        ps.iter().copied().zip(vs.iter().copied()).collect()
    }

    /// The score of one paper in one context.
    pub fn get(&self, context: ContextId, paper: PaperId) -> Option<f64> {
        let (ps, vs) = self.columns(context);
        ps.binary_search(&paper).ok().map(|i| vs[i])
    }

    /// Contexts that have entries, in ascending id order.
    pub fn contexts(&self) -> impl Iterator<Item = ContextId> + '_ {
        self.contexts.iter().copied()
    }

    /// Just the score values of one context (for separability).
    pub fn score_values(&self, context: ContextId) -> &[f64] {
        self.columns(context).1
    }

    /// Iterate every context's columns in ascending context order (the
    /// persistence layer writes these natively as snapshot v2).
    pub(crate) fn iter_columns(&self) -> impl Iterator<Item = (ContextId, &[PaperId], &[f64])> {
        self.contexts.iter().enumerate().map(|(i, &c)| {
            let r = self.offsets[i]..self.offsets[i + 1];
            (c, &self.papers[r.clone()], &self.values[r])
        })
    }

    /// The paper's hierarchy rule (§3): a paper residing in context `c`
    /// and in descendants of `c` takes the *maximum* of its scores
    /// there, because high prestige in a more specific context implies
    /// high relevance to the ancestor.
    ///
    /// Processes contexts in reverse topological order so each child is
    /// final before its parents look at it. Offline-only: works on a
    /// map-shaped copy and rebuilds the columnar arena at the end.
    pub fn propagate_hierarchy_max(&mut self, ontology: &Ontology, sets: &ContextPaperSets) {
        let mut by_context: HashMap<ContextId, Vec<(PaperId, f64)>> = self
            .iter_columns()
            .map(|(c, ps, vs)| (c, ps.iter().copied().zip(vs.iter().copied()).collect()))
            .collect();
        let topo: Vec<ContextId> = ontology.topological_order().to_vec();
        for &c in topo.iter().rev() {
            if !sets.contains_context(c) {
                continue;
            }
            // Collect child maxima for papers that also reside in c.
            let mut updates: Vec<(PaperId, f64)> = Vec::new();
            for &child in ontology.children(c) {
                if let Some(child_scores) = by_context.get(&child) {
                    for &(p, s) in child_scores {
                        if sets.is_member(c, p) {
                            updates.push((p, s));
                        }
                    }
                }
            }
            if updates.is_empty() {
                continue;
            }
            let v = by_context.entry(c).or_default();
            for (p, s) in updates {
                match v.binary_search_by_key(&p, |&(q, _)| q) {
                    Ok(i) => {
                        if s > v[i].1 {
                            v[i].1 = s;
                        }
                    }
                    Err(i) => v.insert(i, (p, s)),
                }
            }
        }
        *self = Self::new(by_context, self.function);
    }
}

/// Max-normalize a score list so the best paper gets 1.0 (no-op when
/// everything is 0 — e.g. an edgeless citation context, whose uniform
/// zero scores are exactly the tie pathology the paper reports).
pub(crate) fn max_normalize(scores: &mut [(PaperId, f64)]) {
    let max = scores.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
    if max > 0.0 {
        for (_, s) in scores.iter_mut() {
            *s /= max;
        }
    }
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
        // 0 <- 1 <- 2
        Ontology::new(vec![t("a", vec![]), t("b", vec![0]), t("c", vec![1])]).unwrap()
    }

    fn sets_and_scores() -> (ContextPaperSets, PrestigeScores) {
        let mut members = HashMap::new();
        members.insert(TermId(0), vec![PaperId(1), PaperId(2)]);
        members.insert(TermId(1), vec![PaperId(1), PaperId(2)]);
        members.insert(TermId(2), vec![PaperId(1)]);
        let sets = ContextPaperSets::new(members, ContextSetKind::PatternBased);
        let mut scores = HashMap::new();
        scores.insert(TermId(0), vec![(PaperId(1), 0.1), (PaperId(2), 0.9)]);
        scores.insert(TermId(1), vec![(PaperId(1), 0.4), (PaperId(2), 0.2)]);
        scores.insert(TermId(2), vec![(PaperId(1), 1.0)]);
        (sets, PrestigeScores::new(scores, ScoreFunction::Pattern))
    }

    #[test]
    fn get_and_scores() {
        let (_, s) = sets_and_scores();
        assert_eq!(s.get(TermId(0), PaperId(2)), Some(0.9));
        assert_eq!(s.get(TermId(0), PaperId(7)), None);
        assert!(s.scores(TermId(9)).is_empty());
    }

    #[test]
    fn columns_are_sorted_and_parallel() {
        let (_, s) = sets_and_scores();
        let (ps, vs) = s.columns(TermId(0));
        assert_eq!(ps, &[PaperId(1), PaperId(2)]);
        assert_eq!(vs, &[0.1, 0.9]);
        assert_eq!(s.score_values(TermId(0)), &[0.1, 0.9]);
        let (ps, vs) = s.columns(TermId(9));
        assert!(ps.is_empty() && vs.is_empty());
        // Contexts iterate in ascending id order.
        let cs: Vec<ContextId> = s.contexts().collect();
        assert_eq!(cs, vec![TermId(0), TermId(1), TermId(2)]);
    }

    #[test]
    fn unsorted_input_columns_are_sorted_on_read() {
        let cols = vec![
            (TermId(4), vec![PaperId(9), PaperId(2)], vec![0.9, 0.2]),
            (TermId(1), vec![PaperId(3)], vec![0.3]),
        ];
        let s = PrestigeScores::from_context_columns(cols, ScoreFunction::Text);
        assert_eq!(s.columns(TermId(4)).0, &[PaperId(2), PaperId(9)]);
        assert_eq!(s.columns(TermId(4)).1, &[0.2, 0.9]);
        assert_eq!(s.get(TermId(1), PaperId(3)), Some(0.3));
        let cs: Vec<ContextId> = s.contexts().collect();
        assert_eq!(cs, vec![TermId(1), TermId(4)]);
    }

    #[test]
    fn hierarchy_max_propagates_up_the_chain() {
        let onto = chain_ontology();
        let (sets, mut s) = sets_and_scores();
        s.propagate_hierarchy_max(&onto, &sets);
        // Paper 1: leaf score 1.0 lifts its score in 1 and 0.
        assert_eq!(s.get(TermId(2), PaperId(1)), Some(1.0));
        assert_eq!(s.get(TermId(1), PaperId(1)), Some(1.0));
        assert_eq!(s.get(TermId(0), PaperId(1)), Some(1.0));
        // Paper 2: 0.9 in root stays (child has only 0.2).
        assert_eq!(s.get(TermId(0), PaperId(2)), Some(0.9));
        assert_eq!(s.get(TermId(1), PaperId(2)), Some(0.2));
    }

    #[test]
    fn propagation_respects_membership() {
        let onto = chain_ontology();
        let mut members = HashMap::new();
        // Paper 3 lives only in the leaf.
        members.insert(TermId(0), vec![PaperId(1)]);
        members.insert(TermId(2), vec![PaperId(3)]);
        let sets = ContextPaperSets::new(members, ContextSetKind::PatternBased);
        let mut scores = HashMap::new();
        scores.insert(TermId(0), vec![(PaperId(1), 0.5)]);
        scores.insert(TermId(2), vec![(PaperId(3), 1.0)]);
        let mut s = PrestigeScores::new(scores, ScoreFunction::Text);
        s.propagate_hierarchy_max(&onto, &sets);
        assert_eq!(
            s.get(TermId(0), PaperId(3)),
            None,
            "non-members don't gain scores"
        );
    }

    #[test]
    fn max_normalize_works() {
        let mut v = vec![(PaperId(0), 2.0), (PaperId(1), 4.0)];
        max_normalize(&mut v);
        assert_eq!(v[0].1, 0.5);
        assert_eq!(v[1].1, 1.0);
        let mut zeros = vec![(PaperId(0), 0.0)];
        max_normalize(&mut zeros);
        assert_eq!(zeros[0].1, 0.0);
    }
}
