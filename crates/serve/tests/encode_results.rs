//! `serve::encode_results` writes its JSON by hand; these tests hold it
//! byte-identical to the `serde_json` value-tree encoding it replaced,
//! kept here as the reference.

use context_search::SearchResult;
use corpus::PaperId;
use ontology::TermId as ContextId;
use serde::Value;

/// The value-tree encoding `encode_results` used to build.
fn reference(results: &[SearchResult]) -> String {
    let items: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::Map(vec![
                ("paper".to_string(), Value::UInt(u64::from(r.paper.0))),
                ("relevancy".to_string(), Value::Float(r.relevancy)),
                ("matching".to_string(), Value::Float(r.matching)),
                ("prestige".to_string(), Value::Float(r.prestige)),
                ("context".to_string(), Value::UInt(u64::from(r.context.0))),
            ])
        })
        .collect();
    let doc = Value::Map(vec![
        ("count".to_string(), Value::UInt(results.len() as u64)),
        ("results".to_string(), Value::Seq(items)),
    ]);
    serde_json::to_string(&doc).unwrap()
}

/// Floats that stress the encoding: signed zeros, subnormals, the
/// extremes, non-finite values and ordinary scores.
const FLOATS: [f64; 14] = [
    0.0,
    -0.0,
    5e-324,
    -2.2250738585072014e-308,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    0.1 + 0.2,
    0.873_421_958_273_1,
    1e21,
];

fn results(n: usize) -> Vec<SearchResult> {
    (0..n)
        .map(|i| SearchResult {
            paper: PaperId(if i % 7 == 0 {
                u32::MAX - i as u32
            } else {
                i as u32
            }),
            relevancy: FLOATS[i % FLOATS.len()],
            matching: FLOATS[(i * 3 + 1) % FLOATS.len()],
            prestige: FLOATS[(i * 5 + 2) % FLOATS.len()],
            context: ContextId(if i % 3 == 0 {
                u32::MAX
            } else {
                (i * 31) as u32
            }),
        })
        .collect()
}

/// `n` results with every field at its longest encoding.
fn longest(n: usize) -> Vec<SearchResult> {
    let float = -2.2250738585072014e-308;
    let longest = SearchResult {
        paper: PaperId(u32::MAX),
        relevancy: float,
        matching: float,
        prestige: float,
        context: ContextId(u32::MAX),
    };
    vec![longest; n]
}

#[test]
fn direct_encoding_is_byte_identical_to_the_value_tree() {
    for n in [0, 1, 10, 100, 10_000] {
        for (shape, results) in [("mixed", results(n)), ("longest", longest(n))] {
            assert_eq!(
                serve::encode_results(&results),
                reference(&results),
                "{n} {shape} results"
            );
        }
    }
}

#[test]
fn every_float_field_round_trips_through_both_encodings() {
    for &a in &FLOATS {
        for &b in &FLOATS {
            let one = [SearchResult {
                paper: PaperId(3),
                relevancy: a,
                matching: b,
                prestige: -a,
                context: ContextId(9),
            }];
            assert_eq!(
                serve::encode_results(&one),
                reference(&one),
                "{a:?} / {b:?}"
            );
        }
    }
}
