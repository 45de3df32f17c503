//! Answer checks, made apart from the serving path: snapshot tables are
//! read with the benchmark's own JSON reader, and the expected ranking
//! comes from a brute-force scorer that bypasses the columnar kernel.

use crate::json::{self, Json};
use context_search::config::RelevancyWeights;
use context_search::{ContextSetKind, Searcher};
use corpus::PaperId;
use std::collections::HashMap;
use std::path::Path;

/// How far a brute-force relevancy may sit from the wire's: the
/// inverted index stores posting weights as `f32`, so its matching
/// scores differ from `whole_cosine` in the last few float digits.
pub(crate) const RELEVANCY_EPS: f64 = 1e-6;

/// Per context, papers ascending with a parallel value column.
#[derive(Debug, Default)]
pub(crate) struct Columns {
    by_context: HashMap<u32, (Vec<u32>, Vec<f64>)>,
}

impl Columns {
    /// A `prestige_{set}_{function}.json` snapshot file:
    /// `{"function": …, "columns": [[context, [paper…], [score…]], …]}`.
    pub(crate) fn prestige_file(path: &Path) -> Result<Self, String> {
        let doc = read_json(path)?;
        let bad = |what: &str| format!("{}: {what}", path.display());
        let mut by_context = HashMap::new();
        for col in doc
            .get("columns")
            .and_then(Json::arr)
            .ok_or_else(|| bad("no columns"))?
        {
            let (context, papers, scores) = match col.arr() {
                Some([c, p, s]) => (c, p, s),
                _ => return Err(bad("column is not [context, papers, scores]")),
            };
            let context = context.uint().ok_or_else(|| bad("bad context id"))?;
            let papers = papers.arr().ok_or_else(|| bad("papers not an array"))?;
            let scores = scores.arr().ok_or_else(|| bad("scores not an array"))?;
            if papers.len() != scores.len() {
                return Err(bad("papers and scores differ in length"));
            }
            let mut pairs = Vec::with_capacity(papers.len());
            for (p, s) in papers.iter().zip(scores) {
                let p = p.uint().ok_or_else(|| bad("bad paper id"))?;
                let s = s.num().ok_or_else(|| bad("bad score"))?;
                pairs.push((p, s));
            }
            pairs.sort_by_key(|&(p, _)| p);
            by_context.insert(context, pairs.into_iter().unzip());
        }
        Ok(Self { by_context })
    }

    pub(crate) fn get(&self, context: u32, paper: u32) -> Option<f64> {
        let (papers, scores) = self.by_context.get(&context)?;
        papers.binary_search(&paper).ok().map(|i| scores[i])
    }
}

/// Members per context from a `sets_{kind}.json` snapshot file:
/// `{"kind": …, "members": [[context, [paper…]], …], …}`.
pub(crate) fn members_file(path: &Path) -> Result<HashMap<u32, Vec<u32>>, String> {
    let doc = read_json(path)?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let mut out = HashMap::new();
    for entry in doc
        .get("members")
        .and_then(Json::arr)
        .ok_or_else(|| bad("no members"))?
    {
        let (context, papers) = match entry.arr() {
            Some([c, p]) => (c, p),
            _ => return Err(bad("entry is not [context, papers]")),
        };
        let context = context.uint().ok_or_else(|| bad("bad context id"))?;
        let papers = papers
            .arr()
            .ok_or_else(|| bad("papers not an array"))?
            .iter()
            .map(|p| p.uint().ok_or_else(|| bad("bad paper id")))
            .collect::<Result<Vec<u32>, String>>()?;
        out.insert(context, papers);
    }
    Ok(out)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// The brute-force answer to one request.
#[derive(Debug, Default)]
pub(crate) struct Expected {
    /// Ranking truncated to the limit: (paper, relevancy).
    pub(crate) top: Vec<(u32, f64)>,
    /// Best relevancy of every paper scored.
    pub(crate) all: HashMap<u32, f64>,
}

/// Score every member of every selected context with the snapshot's
/// prestige table and `CorpusIndex::whole_cosine`, keep each paper's
/// best relevancy (first context wins ties, as in selection order), and
/// rank by descending relevancy, then ascending paper id.
pub(crate) fn brute_force(
    searcher: &Searcher,
    query: &str,
    kind: ContextSetKind,
    members: &HashMap<u32, Vec<u32>>,
    table: &Columns,
    limit: usize,
    weights: &RelevancyWeights,
) -> Expected {
    let index = searcher.index();
    let qvec = index.query_vector(searcher.corpus(), query);
    let mut all: HashMap<u32, f64> = HashMap::new();
    for (context, _) in searcher.select_contexts(query, searcher.sets(kind)) {
        let context = context.0;
        for &paper in members.get(&context).map_or(&[][..], Vec::as_slice) {
            let Some(prestige) = table.get(context, paper) else {
                continue;
            };
            let matching = index.whole_cosine(PaperId(paper), &qvec);
            if matching <= 0.0 {
                continue;
            }
            let r = weights.prestige * prestige + weights.matching * matching;
            let best = all.entry(paper).or_insert(r);
            if r > *best {
                *best = r;
            }
        }
    }
    let mut top: Vec<(u32, f64)> = all.iter().map(|(&p, &r)| (p, r)).collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    if limit > 0 {
        top.truncate(limit);
    }
    Expected { top, all }
}

/// What one `/v1/search` answer must satisfy.
pub(crate) struct Spec<'a> {
    pub(crate) limit: usize,
    pub(crate) table: &'a Columns,
    pub(crate) expected: &'a Expected,
    pub(crate) weights: &'a RelevancyWeights,
}

/// Check one 200 answer body against its request's [`Spec`].
pub(crate) fn check_answer(body: &[u8], spec: &Spec) -> Result<(), String> {
    let doc = json::parse(body).map_err(|e| format!("body does not parse: {e}"))?;
    let count = doc
        .get("count")
        .and_then(Json::uint)
        .ok_or("no integer \"count\"")? as usize;
    let results = doc
        .get("results")
        .and_then(Json::arr)
        .ok_or("no \"results\" array")?;
    if count != results.len() {
        return Err(format!("count {count} but {} results", results.len()));
    }
    if spec.limit > 0 && count > spec.limit {
        return Err(format!("count {count} exceeds limit {}", spec.limit));
    }
    let mut rows = Vec::with_capacity(count);
    for r in results {
        let field = |k: &str| {
            r.get(k)
                .and_then(Json::num)
                .ok_or(format!("result without {k}"))
        };
        let paper = r
            .get("paper")
            .and_then(Json::uint)
            .ok_or("result without paper")?;
        let context = r
            .get("context")
            .and_then(Json::uint)
            .ok_or("result without context")?;
        rows.push((
            paper,
            context,
            field("relevancy")?,
            field("matching")?,
            field("prestige")?,
        ));
    }
    let mut seen: Vec<u32> = rows.iter().map(|r| r.0).collect();
    seen.sort_unstable();
    if seen.windows(2).any(|w| w[0] == w[1]) {
        return Err("a paper is listed twice".into());
    }
    for w in rows.windows(2) {
        let ((p0, _, r0, ..), (p1, _, r1, ..)) = (w[0], w[1]);
        if !(r0 > r1 || (r0 == r1 && p0 < p1)) {
            return Err(format!(
                "paper {p1} ({r1}) is out of order after paper {p0} ({r0})"
            ));
        }
    }
    for &(paper, context, relevancy, matching, prestige) in &rows {
        let want = spec.weights.prestige * prestige + spec.weights.matching * matching;
        if relevancy.to_bits() != want.to_bits() {
            return Err(format!(
                "paper {paper}: relevancy {relevancy} != weighted sum {want}"
            ));
        }
        match spec.table.get(context, paper) {
            Some(p) if p.to_bits() == prestige.to_bits() => {}
            other => {
                return Err(format!(
                "paper {paper}: prestige {prestige} but table ({context}, {paper}) holds {other:?}"
            ))
            }
        }
    }
    let top = &spec.expected.top;
    if top.len() != rows.len() {
        return Err(format!(
            "{} results, brute force finds {}",
            rows.len(),
            top.len()
        ));
    }
    for (rank, (&(paper, _, relevancy, ..), &(_, brute_r))) in rows.iter().zip(top).enumerate() {
        if (relevancy - brute_r).abs() > RELEVANCY_EPS {
            return Err(format!(
                "rank {rank}: relevancy {relevancy}, brute force {brute_r}"
            ));
        }
        match spec.expected.all.get(&paper) {
            Some(&b) if (b - relevancy).abs() <= RELEVANCY_EPS => {}
            other => {
                return Err(format!(
                    "paper {paper}: relevancy {relevancy}, brute force scores it {other:?}"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: RelevancyWeights = RelevancyWeights {
        prestige: 0.5,
        matching: 0.5,
    };

    /// Context 7 holds papers 1..=4; the brute force ranks 3, 1, 4.
    fn fixture() -> (Columns, Expected) {
        let mut table = Columns::default();
        table
            .by_context
            .insert(7, (vec![1, 2, 3, 4], vec![0.5, 0.25, 0.75, 0.5]));
        let rows = [
            (3, 0.75, 0.25),
            (1, 0.5, 0.25),
            (4, 0.5, 0.25),
            (2, 0.25, 0.125),
        ];
        let all: HashMap<u32, f64> = rows
            .iter()
            .map(|&(p, pr, m)| (p, W.prestige * pr + W.matching * m))
            .collect();
        let mut top: Vec<(u32, f64)> = all.iter().map(|(&p, &r)| (p, r)).collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(3);
        (table, Expected { top, all })
    }

    fn answer(rows: &[(u32, f64, f64, f64)]) -> String {
        let items: Vec<String> = rows
            .iter()
            .map(|&(p, r, m, pr)| {
                format!(
                    "{{\"paper\":{p},\"relevancy\":{r:?},\"matching\":{m:?},\"prestige\":{pr:?},\"context\":7}}"
                )
            })
            .collect();
        format!(
            "{{\"count\":{},\"results\":[{}]}}",
            rows.len(),
            items.join(",")
        )
    }

    fn good_rows() -> Vec<(u32, f64, f64, f64)> {
        vec![
            (3, 0.5, 0.25, 0.75),
            (1, 0.375, 0.25, 0.5),
            (4, 0.375, 0.25, 0.5),
        ]
    }

    fn check(body: &str) -> Result<(), String> {
        let (table, expected) = fixture();
        let spec = Spec {
            limit: 3,
            table: &table,
            expected: &expected,
            weights: &W,
        };
        check_answer(body.as_bytes(), &spec)
    }

    #[test]
    fn accepts_the_correct_answer() {
        check(&answer(&good_rows())).unwrap();
    }

    #[test]
    fn rejects_each_hand_broken_answer() {
        let good = answer(&good_rows());
        let mut broken: Vec<(&str, String)> = vec![
            ("truncated body", good[..good.len() - 2].to_string()),
            (
                "count disagrees",
                good.replacen("\"count\":3", "\"count\":2", 1),
            ),
        ];
        let mut rows = good_rows();
        rows.push((2, 0.1875, 0.125, 0.25));
        broken.push(("count over the limit", answer(&rows)));
        let mut rows = good_rows();
        rows[2] = rows[1];
        broken.push(("paper listed twice", answer(&rows)));
        let mut rows = good_rows();
        rows.swap(0, 1);
        broken.push(("descending order broken", answer(&rows)));
        let mut rows = good_rows();
        rows.swap(1, 2);
        broken.push(("tie broken by descending id", answer(&rows)));
        let mut rows = good_rows();
        rows[0].1 = f64::from_bits(rows[0].1.to_bits() + 1);
        broken.push(("relevancy one ulp off the weighted sum", answer(&rows)));
        let mut rows = good_rows();
        rows[0] = (3, 0.4375, 0.125, 0.75);
        broken.push((
            "weighted sum consistent, brute force disagrees",
            answer(&rows),
        ));
        let mut rows = good_rows();
        rows[1] = (1, 0.4375, 0.25, 0.625);
        broken.push(("prestige not the table's", answer(&rows)));
        broken.push(("paper missing", answer(&good_rows()[..2])));
        let mut rows = good_rows();
        rows[2] = (2, 0.375, 0.5, 0.25);
        broken.push(("paper outside the brute-force top-k", answer(&rows)));
        for (what, body) in broken {
            assert!(check(&body).is_err(), "accepted: {what}");
        }
    }

    #[test]
    fn brute_force_rounding_is_tolerated() {
        let (table, mut expected) = fixture();
        for (_, r) in expected.top.iter_mut() {
            *r += RELEVANCY_EPS / 4.0;
        }
        for r in expected.all.values_mut() {
            *r -= RELEVANCY_EPS / 4.0;
        }
        let spec = Spec {
            limit: 3,
            table: &table,
            expected: &expected,
            weights: &W,
        };
        check_answer(answer(&good_rows()).as_bytes(), &spec).unwrap();
    }
}
