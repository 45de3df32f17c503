//! Ingesting real-world-shaped data: a MEDLINE flat file plus an OBO
//! ontology, straight into the search engine — the path a user with
//! actual PubMed exports and the real Gene Ontology would take.
//!
//! Run with: `cargo run --release --example medline_import`

use litsearch::context_search::{
    ContextSetKind, EngineConfig, EngineSnapshot, PrepareOptions, ScoreFunction,
};
use litsearch::corpus::medline::parse_medline;
use litsearch::corpus::Corpus;
use litsearch::ontology::obo::parse_obo;

const OBO: &str = "\
[Term]
id: GO:0006325
name: chromatin organization
namespace: biological_process

[Term]
id: GO:0006333
name: chromatin assembly
namespace: biological_process
is_a: GO:0006325

[Term]
id: GO:0016570
name: histone modification
namespace: biological_process
is_a: GO:0006325

[Term]
id: GO:0016301
name: kinase activity
namespace: molecular_function
";

const MEDLINE: &str = "\
PMID- 1
TI  - Chromatin assembly factors and histone deposition
AB  - We characterize chromatin assembly in vitro. Histone deposition
      requires assembly factors acting on nucleosomes.
FT  - Chromatin assembly proceeds stepwise. Assembly factors deposit
      histone tetramers onto dna, and nucleosome spacing follows.
AU  - Smith J
AU  - Kim H
MH  - chromatin assembly
MH  - histone
DP  - 2001

PMID- 2
TI  - Histone modification landscapes in yeast chromatin
AB  - A survey of histone modification states across the yeast genome
      reveals modification patterns tied to chromatin organization.
FT  - We mapped histone modification marks genome wide. Modification
      enzymes target chromatin regions with distinct organization.
AU  - Kim H
MH  - histone modification
CR  - 1
DP  - 2003

PMID- 3
TI  - Kinase activity assays for signaling studies
AB  - Improved kinase activity assays measure phosphorylation rates in
      signaling cascades.
FT  - The kinase activity assay uses labelled substrates. Kinase
      preparations show linear activity ranges.
AU  - Garcia M
MH  - kinase activity
CR  - 1
DP  - 2005
";

fn main() {
    let ontology = parse_obo(OBO).expect("valid OBO");
    println!(
        "parsed ontology: {} terms, {} roots",
        ontology.len(),
        ontology.roots().len()
    );

    let import = parse_medline(MEDLINE).expect("valid MEDLINE");
    println!(
        "parsed MEDLINE: {} papers, {} authors, {} dangling references",
        import.papers.len(),
        import.author_names.len(),
        import.dangling_references
    );

    // Real imports carry no GO annotation evidence; the pattern-based
    // paper set works regardless (patterns come from term names).
    let term_names: Vec<String> = ontology
        .term_ids()
        .map(|t| ontology.term(t).name.clone())
        .collect();
    let corpus = Corpus::new(
        import.papers,
        import.author_names,
        Default::default(),
        &term_names,
    );
    let (kind, function) = (ContextSetKind::PatternBased, ScoreFunction::Pattern);
    let engine = EngineSnapshot::prepare_with(
        ontology,
        corpus,
        EngineConfig::default(),
        PrepareOptions {
            pairs: vec![(kind, function)],
        },
    );
    let sets = engine.sets(kind);
    println!("\ncontext paper sets:");
    for c in sets.contexts() {
        println!(
            "  {:<28} {:?}",
            engine.ontology().term(c).name,
            sets.members(c)
                .iter()
                .map(|p| engine.corpus().paper(*p).title.split(' ').next().unwrap())
                .collect::<Vec<_>>()
        );
    }

    let searcher = engine.searcher();
    for query in ["histone modification chromatin", "kinase phosphorylation"] {
        println!("\nquery: {query:?}");
        for h in searcher.query(query, kind, function, 3).unwrap() {
            println!(
                "  R={:.3}  [{}]  {}",
                h.relevancy,
                engine.ontology().term(h.context).name,
                engine.corpus().paper(h.paper).title
            );
        }
    }
}
