//! Per-thread query execution scratch: dense score/context arrays, the
//! keyword-candidate accumulator, and the bounded top-k selector.
//!
//! One [`QueryScratch`] per worker thread makes the serve path
//! allocation-light without any cross-thread state: the pool is a
//! `thread_local`, so queries on different threads never contend and
//! the hot path stays lock-free (a `RefCell` borrow is a flag check,
//! not a lock — and the scratch is thread-owned, never shared). Reuse
//! is epoch-stamped: a dense slot is live only when its stamp equals
//! the current query's epoch, so consecutive queries skip O(n_papers)
//! zeroing.
//!
//! # Stamp-lookup invariant
//!
//! [`QueryScratch::score_context`] walks one context's prestige column
//! in its stored, **ascending paper order** and reads each paper's
//! candidate stamp and score straight from the [`CandidateScratch`] —
//! the candidates are never sorted. It scores the same (context, paper)
//! pairs in the same order as an intersection of two sorted columns
//! would, and a paper that a column repeats is scored once, at its
//! first entry. Combined with contexts being scored in selection order,
//! the update sequence against the dense best-result arrays is exactly
//! the old HashMap path's insertion/`and_modify` sequence, which is
//! what keeps ranked output byte-identical.
//!
//! # Why plain indexing is safe here
//!
//! The dense arrays are sized by [`QueryScratch::begin`] to the corpus
//! paper count, and a paper is only *visited* when the candidate
//! lookup finds it live — only doc ids the inverted index stamped for
//! this query are, and those are `< n_docs == n_papers` by
//! construction. The lookup itself is bounds-checked, so a prestige
//! entry past the corpus (a table installed through
//! [`Searcher::with_prestige_override`]) is no candidate rather than a
//! panic; the snapshot loader refuses such entries outright.
//!
//! [`Searcher::with_prestige_override`]: crate::search::Searcher::with_prestige_override

use crate::config::RelevancyWeights;
use crate::context::ContextId;
use crate::indexes::CorpusIndex;
use crate::prestige::PrestigeScores;
use crate::search::exec::{rank_order, SearchResult};
use crate::search::relevancy::relevancy;
use corpus::PaperId;
use ontology::TermId;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use textproc::index::DocId;
use textproc::{CandidateScratch, SparseVector};

/// Reusable per-thread state for one query execution.
#[derive(Debug, Default)]
pub(crate) struct QueryScratch {
    /// Keyword-candidate accumulator.
    candidates: CandidateScratch,
    /// Best relevancy per paper (live iff `stamp` matches `epoch`).
    rel: Vec<f64>,
    /// The paper's text-match score (identical in every context).
    mat: Vec<f64>,
    /// Prestige component of the best relevancy.
    pres: Vec<f64>,
    /// Context that produced the best relevancy.
    ctx: Vec<ContextId>,
    /// Epoch stamps for the four arrays above.
    stamp: Vec<u32>,
    /// The current query's epoch.
    epoch: u32,
    /// Papers with at least one scored pair, in first-touch order.
    touched: Vec<PaperId>,
}

impl QueryScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a query: size the dense arrays for `n_papers` and advance
    /// the epoch (clearing all stamps on u32 wraparound).
    pub fn begin(&mut self, n_papers: usize) {
        if self.rel.len() < n_papers {
            self.rel.resize(n_papers, 0.0);
            self.mat.resize(n_papers, 0.0);
            self.pres.resize(n_papers, 0.0);
            self.ctx.resize(n_papers, TermId(0));
            self.stamp.resize(n_papers, 0);
        }
        self.touched.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Run the keyword match into the candidate accumulator. Same
    /// candidate set and score bits as the map-shaped
    /// `keyword_search(query, 0.0)` path.
    pub fn gather_candidates(&mut self, index: &CorpusIndex, query: &SparseVector) {
        index.keyword_search_columns(query, 0.0, &mut self.candidates);
    }

    /// Number of keyword candidates of the current query.
    pub fn n_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Number of distinct papers scored so far.
    pub fn distinct(&self) -> usize {
        self.touched.len()
    }

    /// Walk one context's prestige columns and fold each candidate
    /// paper's relevancy into the dense best-result arrays (see the
    /// module's stamp-lookup invariant). Returns the number of
    /// (context, paper) pairs scored.
    pub fn score_context(
        &mut self,
        prestige: &PrestigeScores,
        context: ContextId,
        weights: &RelevancyWeights,
    ) -> u64 {
        let (papers, values) = prestige.columns(context);
        let Self {
            candidates,
            rel,
            mat,
            pres,
            ctx,
            stamp,
            epoch,
            touched,
        } = self;
        let cur = *epoch;
        let mut pairs = 0u64;
        let mut last = None;
        for (&paper, &pscore) in papers.iter().zip(values) {
            // The column is ascending, so a repeated paper is adjacent
            // to its first entry.
            if last == Some(paper) {
                continue;
            }
            last = Some(paper);
            let Some(m) = candidates.score(DocId(paper.0)) else {
                continue;
            };
            pairs += 1;
            // First touch writes all four arrays; a later context wins
            // only on strictly greater relevancy, as the HashMap path's
            // `and_modify` did.
            let r = relevancy(pscore, m, weights);
            let i = paper.index();
            if stamp[i] != cur {
                stamp[i] = cur;
                touched.push(paper);
                rel[i] = r;
                mat[i] = m;
                pres[i] = pscore;
                ctx[i] = context;
            } else if r > rel[i] {
                rel[i] = r;
                pres[i] = pscore;
                ctx[i] = context;
            }
        }
        pairs
    }

    fn result_for(&self, paper: PaperId) -> SearchResult {
        let i = paper.index();
        SearchResult {
            paper,
            relevancy: self.rel[i],
            matching: self.mat[i],
            prestige: self.pres[i],
            context: self.ctx[i],
        }
    }

    /// Rank the scored papers under [`rank_order`]. `limit == 0` sorts
    /// everything; otherwise a bounded max-heap keeps exactly the top
    /// `limit` (identical to full-sort-then-truncate, because
    /// `rank_order` is a strict total order over distinct papers).
    /// Returns the ranked results and the number of heap pushes — on
    /// the unbounded path every candidate "enters the ranking", so the
    /// counter equals the distinct-paper count there.
    pub fn ranked(&mut self, limit: usize) -> (Vec<SearchResult>, u64) {
        if limit == 0 {
            let mut out: Vec<SearchResult> =
                self.touched.iter().map(|&p| self.result_for(p)).collect();
            out.sort_by(rank_order);
            let pushes = out.len() as u64;
            return (out, pushes);
        }
        let mut pushes = 0u64;
        let mut heap: BinaryHeap<RankEntry> = BinaryHeap::with_capacity(limit + 1);
        for &p in &self.touched {
            let cand = self.result_for(p);
            if heap.len() < limit {
                heap.push(RankEntry(cand));
                pushes += 1;
            } else if let Some(worst) = heap.peek() {
                if rank_order(&cand, &worst.0) == Ordering::Less {
                    heap.pop();
                    heap.push(RankEntry(cand));
                    pushes += 1;
                }
            }
        }
        let out: Vec<SearchResult> = heap.into_sorted_vec().into_iter().map(|e| e.0).collect();
        (out, pushes)
    }
}

/// Heap entry ordered by [`rank_order`] — `Less` means "ranks first",
/// so a max-heap keeps its *worst* element on top, which is the one a
/// better candidate evicts.
struct RankEntry(SearchResult);

impl PartialEq for RankEntry {
    fn eq(&self, other: &Self) -> bool {
        rank_order(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for RankEntry {}
impl PartialOrd for RankEntry {
    // lint:allow(float-total-order, delegates to Ord, which is rank_order and therefore total_cmp with the PaperId tie-break)
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RankEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_order(&self.0, &other.0)
    }
}

thread_local! {
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// Run `f` with this thread's pooled [`QueryScratch`]. Re-entrant calls
/// (a query issued from inside a scratch-held section on the same
/// thread) fall back to a fresh scratch instead of panicking.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut QueryScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontology::TermId;

    fn result(paper: u32, relevancy: f64) -> SearchResult {
        SearchResult {
            paper: PaperId(paper),
            relevancy,
            matching: 0.0,
            prestige: 0.0,
            context: TermId(0),
        }
    }

    /// Drive `ranked` directly through a hand-built scratch.
    fn scratch_with(results: &[SearchResult]) -> QueryScratch {
        let n = results
            .iter()
            .map(|r| r.paper.index() + 1)
            .max()
            .unwrap_or(0);
        let mut s = QueryScratch::new();
        s.begin(n);
        for r in results {
            let i = r.paper.index();
            s.stamp[i] = s.epoch;
            s.rel[i] = r.relevancy;
            s.mat[i] = r.matching;
            s.pres[i] = r.prestige;
            s.ctx[i] = r.context;
            s.touched.push(r.paper);
        }
        s
    }

    fn ids(v: &[SearchResult]) -> Vec<PaperId> {
        v.iter().map(|r| r.paper).collect()
    }

    #[test]
    fn bounded_top_k_equals_sort_then_truncate() {
        // Duplicated relevancies force the PaperId tie-break through
        // the heap's eviction decisions.
        let results: Vec<SearchResult> = [0.5, 0.9, 0.5, 0.1, 0.9, 0.5, 0.7]
            .iter()
            .enumerate()
            .map(|(p, &s)| result(p as u32, s))
            .collect();
        let mut reference = results.clone();
        reference.sort_by(rank_order);
        for limit in 1..=results.len() + 2 {
            let (top, pushes) = scratch_with(&results).ranked(limit);
            let mut want = reference.clone();
            want.truncate(limit);
            assert_eq!(ids(&top), ids(&want), "limit {limit}");
            assert!(pushes >= top.len() as u64);
            assert!(pushes <= results.len() as u64);
        }
        let (all, pushes) = scratch_with(&results).ranked(0);
        assert_eq!(ids(&all), ids(&reference));
        assert_eq!(pushes, results.len() as u64);
    }

    #[test]
    fn heap_pushes_shrink_when_input_arrives_best_first() {
        // Descending input: after the heap fills, nothing displaces.
        let desc: Vec<SearchResult> = (0..100)
            .map(|p| result(p, 1.0 - p as f64 / 100.0))
            .collect();
        let (_, pushes) = scratch_with(&desc).ranked(10);
        assert_eq!(pushes, 10);
        // Ascending input: every candidate displaces.
        let asc: Vec<SearchResult> = desc.iter().rev().copied().collect();
        let (_, pushes) = scratch_with(&asc).ranked(10);
        assert_eq!(pushes, 100);
    }

    #[test]
    fn epoch_reuse_isolates_queries() {
        let mut s = scratch_with(&[result(3, 0.8), result(5, 0.2)]);
        let (first, _) = s.ranked(0);
        assert_eq!(ids(&first), vec![PaperId(3), PaperId(5)]);
        // Reusing the same scratch for a disjoint query must not leak
        // paper 3 or 5.
        s.begin(10);
        s.stamp[7] = s.epoch;
        s.rel[7] = 0.4;
        s.touched.push(PaperId(7));
        let (second, _) = s.ranked(0);
        assert_eq!(ids(&second), vec![PaperId(7)]);
    }

    /// A begun scratch whose keyword candidates are papers `0..n`, each
    /// with the same match score: an index of `n` documents holding word
    /// 0 and one more holding word 1, queried for word 0.
    fn scratch_with_candidates(n: usize) -> QueryScratch {
        use textproc::{InvertedIndex, TermId as Word, TfIdfModel};
        let mut docs = vec![vec![Word(0)]; n];
        docs.push(vec![Word(1)]);
        let model = TfIdfModel::fit(docs.iter().map(Vec::as_slice));
        let vectors: Vec<SparseVector> =
            docs.iter().map(|d| model.vectorize_normalized(d)).collect();
        let mut s = QueryScratch::new();
        s.begin(docs.len());
        InvertedIndex::build(&vectors).search_columns(
            &model.vectorize_normalized(&[Word(0)]),
            0.0,
            &mut s.candidates,
        );
        assert_eq!(s.n_candidates(), n);
        s
    }

    #[test]
    fn override_tables_score_a_repeated_paper_once_and_skip_papers_past_the_corpus() {
        // `PrestigeScores::new` takes any lists, as an override table
        // does: paper 2 twice, and a paper far past the 5-paper corpus.
        let c = TermId(7);
        let lists = [(PaperId(2), 0.5), (PaperId(99_999), 1.0), (PaperId(2), 0.5)];
        let table = PrestigeScores::new(
            [(c, lists.to_vec())].into_iter().collect(),
            crate::prestige::ScoreFunction::Pattern,
        );
        let mut s = scratch_with_candidates(4);
        let pairs = s.score_context(&table, c, &RelevancyWeights::default());
        assert_eq!(pairs, 1, "paper 2 once, paper 99,999 never");
        let (hits, _) = s.ranked(0);
        assert_eq!(ids(&hits), vec![PaperId(2)]);
        assert_eq!(hits[0].prestige, 0.5);
        assert_eq!(hits[0].context, c);
    }

    #[test]
    fn with_scratch_reenters_without_panicking() {
        let outer = with_scratch(|a| {
            a.begin(4);
            with_scratch(|b| {
                b.begin(2);
                b.distinct()
            })
        });
        assert_eq!(outer, 0);
    }
}
