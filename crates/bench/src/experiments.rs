//! The per-figure experiment implementations (paper §5).

use crate::setup::Setup;
use context_search::prestige::citation::{citation_prestige, hits_citation_prestige};
use context_search::prestige::pattern::pattern_prestige;
use context_search::{ContextPaperSets, PrestigeScores, ScoreFunction};
use eval::report::Table;
use eval::{
    mean, precision, precision_curve, recall, sd_histogram, separability_sd, top_k_percent_overlap,
    PrecisionCurves,
};
use std::collections::HashSet;

/// Scored query output as `(paper id, relevancy)` pairs.
fn run_query(
    setup: &Setup,
    sets: &ContextPaperSets,
    prestige: &PrestigeScores,
    query: &str,
) -> Vec<(u32, f64)> {
    setup
        .searcher
        .search(query, sets, prestige, 0)
        .into_iter()
        .map(|h| (h.paper.0, h.relevancy))
        .collect()
}

/// Average + median precision curves for one (paper set, function).
fn precision_curves(
    setup: &Setup,
    sets: &ContextPaperSets,
    prestige: &PrestigeScores,
) -> PrecisionCurves {
    let thresholds = &setup.config.thresholds;
    let mut per_query: Vec<Vec<f64>> = Vec::new();
    for q in &setup.queries {
        let truth: HashSet<u32> = setup
            .searcher
            .snapshot()
            .ac_answer_set(&q.text)
            .into_iter()
            .map(|p| p.0)
            .collect();
        if truth.is_empty() {
            continue;
        }
        let scored = run_query(setup, sets, prestige, &q.text);
        per_query.push(precision_curve(&scored, &truth, thresholds));
    }
    PrecisionCurves::aggregate(thresholds, &per_query)
}

fn precision_figure(
    setup: &Setup,
    title: &str,
    sets: &ContextPaperSets,
    functions: &[(&str, &PrestigeScores)],
) -> Table {
    let mut columns = vec!["threshold t".to_string()];
    for (name, _) in functions {
        columns.push(format!("{name} avg"));
        columns.push(format!("{name} median"));
    }
    let mut table = Table::new(
        title,
        &columns.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let curves: Vec<PrecisionCurves> = functions
        .iter()
        .map(|(_, p)| precision_curves(setup, sets, p))
        .collect();
    for (i, &t) in setup.config.thresholds.iter().enumerate() {
        let mut row = vec![format!("{t:.2}")];
        for c in &curves {
            row.push(format!("{:.3}", c.average[i]));
            row.push(format!("{:.3}", c.median[i]));
        }
        table.push_row(row);
    }
    table
}

/// Fig 5.1 — precision vs relevancy threshold on the **text-based**
/// context paper set: text-based vs citation-based prestige.
pub fn fig5_1(setup: &Setup) -> Vec<Table> {
    vec![precision_figure(
        setup,
        "Fig 5.1 — precision, text-based context paper set (text vs citation prestige)",
        &setup.text_sets,
        &[
            ("text", &setup.text_on_text),
            ("citation", &setup.citation_on_text),
        ],
    )]
}

/// Fig 5.2 — precision vs relevancy threshold on the **pattern-based**
/// context paper set: pattern-based vs citation-based prestige.
pub fn fig5_2(setup: &Setup) -> Vec<Table> {
    vec![precision_figure(
        setup,
        "Fig 5.2 — precision, pattern-based context paper set (pattern vs citation prestige)",
        &setup.pattern_sets,
        &[
            ("pattern", &setup.pattern_on_pattern),
            ("citation", &setup.citation_on_pattern),
        ],
    )]
}

/// Fig 5.3 — average top-k% overlapping ratio per context level for the
/// three function pairs, on the pattern-based paper set (text scores
/// restricted to contexts with representatives, as in the paper).
pub fn fig5_3(setup: &Setup) -> Vec<Table> {
    let pairs: [(&str, &PrestigeScores, &PrestigeScores); 3] = [
        (
            "text-citation",
            &setup.text_on_pattern,
            &setup.citation_on_pattern,
        ),
        (
            "text-pattern",
            &setup.text_on_pattern,
            &setup.pattern_on_pattern,
        ),
        (
            "citation-pattern",
            &setup.citation_on_pattern,
            &setup.pattern_on_pattern,
        ),
    ];
    let mut tables = Vec::new();
    for (pair_name, fa, fb) in pairs {
        let mut columns = vec!["level".to_string()];
        for &pct in &setup.config.k_pcts {
            columns.push(format!("k={:.0}%", pct * 100.0));
        }
        columns.push("contexts".to_string());
        let mut table = Table::new(
            format!("Fig 5.3 — avg top-k% overlapping ratio, {pair_name}"),
            &columns.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        for &level in &setup.config.levels {
            let contexts = setup.contexts_at_level(&setup.pattern_sets, level);
            let mut per_k: Vec<Vec<f64>> = vec![Vec::new(); setup.config.k_pcts.len()];
            for &c in &contexts {
                let sa: Vec<(u32, f64)> = fa.scores(c).iter().map(|&(p, s)| (p.0, s)).collect();
                let sb: Vec<(u32, f64)> = fb.scores(c).iter().map(|&(p, s)| (p.0, s)).collect();
                if sa.is_empty() || sb.is_empty() {
                    continue; // text scores absent for this context
                }
                for (i, &pct) in setup.config.k_pcts.iter().enumerate() {
                    per_k[i].push(top_k_percent_overlap(&sa, &sb, pct));
                }
            }
            let mut row = vec![format!("{level}")];
            for k in &per_k {
                row.push(format!("{:.3}", mean(k)));
            }
            row.push(format!("{}", per_k[0].len()));
            table.push_row(row);
        }
        tables.push(table);
    }
    tables
}

/// Per-context separability SDs for one score set, restricted to the
/// experiment population.
///
/// Following §5.2 ("scores are divided into k ranges *for each
/// context*"), each context's scores are max-normalized before binning:
/// separability measures how a function spreads the papers of one
/// context over its own score range. Tied scores (the citation
/// function's sparse-graph pathology) then collapse into a single bin
/// and receive the worst possible SD, as in the paper's Fig 5.4.
fn context_sds(
    setup: &Setup,
    sets: &ContextPaperSets,
    prestige: &PrestigeScores,
    level: Option<u32>,
) -> Vec<f64> {
    let contexts = match level {
        Some(l) => setup.contexts_at_level(sets, l),
        None => sets.contexts_with_min_size(setup.config.min_context_size),
    };
    contexts
        .into_iter()
        .filter(|&c| !prestige.scores(c).is_empty())
        .map(|c| {
            let mut values = prestige.score_values(c).to_vec();
            let max = values.iter().cloned().fold(0.0f64, f64::max);
            if max > 0.0 {
                for v in &mut values {
                    *v /= max;
                }
            }
            separability_sd(&values, 10)
        })
        .collect()
}

fn sd_histogram_table(title: &str, series: &[(&str, Vec<f64>)]) -> Table {
    let mut columns = vec!["SD ≤".to_string()];
    for (name, _) in series {
        columns.push(format!("% contexts ({name})"));
    }
    let mut table = Table::new(
        title,
        &columns.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let histos: Vec<(Vec<f64>, Vec<f64>)> = series
        .iter()
        .map(|(_, sds)| sd_histogram(sds, 5.0, 40.0))
        .collect();
    let edges = &histos[0].0;
    for (i, edge) in edges.iter().enumerate() {
        let mut row = vec![format!("{edge:.0}")];
        for (_, pct) in &histos {
            row.push(format!("{:.1}", pct[i]));
        }
        table.push_row(row);
    }
    table
}

/// Fig 5.4 — histogram of contexts by separability SD, per function,
/// for both context paper sets.
pub fn fig5_4(setup: &Setup) -> Vec<Table> {
    let text_panel = sd_histogram_table(
        "Fig 5.4a — % contexts by separability SD, text-based context paper set",
        &[
            (
                "text",
                context_sds(setup, &setup.text_sets, &setup.text_on_text, None),
            ),
            (
                "citation",
                context_sds(setup, &setup.text_sets, &setup.citation_on_text, None),
            ),
        ],
    );
    let pattern_panel = sd_histogram_table(
        "Fig 5.4b — % contexts by separability SD, pattern-based context paper set",
        &[
            (
                "text",
                context_sds(setup, &setup.pattern_sets, &setup.text_on_pattern, None),
            ),
            (
                "citation",
                context_sds(setup, &setup.pattern_sets, &setup.citation_on_pattern, None),
            ),
            (
                "pattern",
                context_sds(setup, &setup.pattern_sets, &setup.pattern_on_pattern, None),
            ),
        ],
    );
    vec![text_panel, pattern_panel]
}

fn per_level_sd_figure(
    setup: &Setup,
    title: &str,
    sets: &ContextPaperSets,
    prestige: &PrestigeScores,
) -> Table {
    let series: Vec<(String, Vec<f64>)> = setup
        .config
        .levels
        .iter()
        .map(|&l| {
            (
                format!("level {l}"),
                context_sds(setup, sets, prestige, Some(l)),
            )
        })
        .collect();
    let series_ref: Vec<(&str, Vec<f64>)> = series
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    let mut t = sd_histogram_table(title, &series_ref);
    // Append mean SD per level as a summary row.
    let mut row = vec!["mean SD".to_string()];
    for (_, sds) in &series {
        row.push(format!("{:.1}", mean(sds)));
    }
    t.push_row(row);
    t
}

/// Fig 5.5 — text-based score SD distribution per context level.
pub fn fig5_5(setup: &Setup) -> Vec<Table> {
    vec![per_level_sd_figure(
        setup,
        "Fig 5.5 — score distribution per context level, text-based scores (text-based paper set)",
        &setup.text_sets,
        &setup.text_on_text,
    )]
}

/// Fig 5.6 — pattern-based score SD distribution per context level.
pub fn fig5_6(setup: &Setup) -> Vec<Table> {
    vec![per_level_sd_figure(
        setup,
        "Fig 5.6 — score distribution per context level, pattern-based scores (pattern-based paper set)",
        &setup.pattern_sets,
        &setup.pattern_on_pattern,
    )]
}

/// Fig 5.7 — citation-based score SD distribution per context level.
pub fn fig5_7(setup: &Setup) -> Vec<Table> {
    vec![per_level_sd_figure(
        setup,
        "Fig 5.7 — score distribution per context level, citation-based scores (pattern-based paper set)",
        &setup.pattern_sets,
        &setup.citation_on_pattern,
    )]
}

/// §1 headline claims: context-based search vs the keyword baseline —
/// output-size reduction and precision against the AC-answer sets.
pub fn baseline_vs_context(setup: &Setup) -> Vec<Table> {
    let mut table = Table::new(
        "Baseline comparison — keyword search vs context-based search (pattern set + pattern prestige)",
        &["metric", "keyword", "context-based"],
    );
    let (mut kw_sizes, mut ctx_sizes) = (Vec::new(), Vec::new());
    let (mut kw_prec, mut ctx_prec) = (Vec::new(), Vec::new());
    let (mut kw_rec, mut ctx_rec) = (Vec::new(), Vec::new());
    for q in &setup.queries {
        let truth: HashSet<u32> = setup
            .searcher
            .snapshot()
            .ac_answer_set(&q.text)
            .into_iter()
            .map(|p| p.0)
            .collect();
        if truth.is_empty() {
            continue;
        }
        let kw: HashSet<u32> = setup
            .searcher
            .snapshot()
            .keyword_search(&q.text, 0.10)
            .into_iter()
            .map(|(p, _)| p.0)
            .collect();
        // Same text-matching cut on both sides: the context side is
        // additionally restricted to members of the selected contexts,
        // which is where the output-size reduction comes from (§1).
        let ctx: HashSet<u32> = setup
            .searcher
            .search(&q.text, &setup.pattern_sets, &setup.pattern_on_pattern, 0)
            .into_iter()
            .filter(|h| h.matching > 0.10)
            .map(|h| h.paper.0)
            .collect();
        kw_sizes.push(kw.len() as f64);
        ctx_sizes.push(ctx.len() as f64);
        kw_prec.push(precision(&kw, &truth));
        ctx_prec.push(precision(&ctx, &truth));
        kw_rec.push(recall(&kw, &truth));
        ctx_rec.push(recall(&ctx, &truth));
    }
    table.push_numeric_row("mean output size", &[mean(&kw_sizes), mean(&ctx_sizes)]);
    table.push_numeric_row("mean precision", &[mean(&kw_prec), mean(&ctx_prec)]);
    table.push_numeric_row("mean recall", &[mean(&kw_rec), mean(&ctx_rec)]);
    let reduction = if mean(&kw_sizes) > 0.0 {
        100.0 * (1.0 - mean(&ctx_sizes) / mean(&kw_sizes))
    } else {
        0.0
    };
    table.push_row(vec![
        "output-size reduction".into(),
        "—".into(),
        format!("{reduction:.0}%"),
    ]);
    vec![table]
}

/// Sparsity analysis: the quantitative backbone of the paper's
/// explanations. For each context level, the mean isolated-node
/// fraction and edge density of the within-context citation subgraphs
/// — the paper's "citation graphs are sparse within those contexts"
/// and "as we drill down, citation graph sparseness increases".
pub fn sparsity_analysis(setup: &Setup) -> Vec<Table> {
    let engine = &setup.searcher;
    let mut t = Table::new(
        "Sparsity — within-context citation graphs per level",
        &[
            "level",
            "contexts",
            "mean size",
            "mean isolated frac",
            "mean density",
            "mean components",
        ],
    );
    for &level in &setup.config.levels {
        let contexts = setup.contexts_at_level(&setup.pattern_sets, level);
        let (mut sizes, mut iso, mut dens, mut comps) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for &c in &contexts {
            let members: Vec<u32> = setup.pattern_sets.members(c).iter().map(|p| p.0).collect();
            let (sub, _) = engine.index().graph.induced_subgraph(&members);
            let s = citegraph::graph_stats(&sub);
            sizes.push(s.n_nodes as f64);
            iso.push(s.isolated_fraction());
            dens.push(s.density);
            comps.push(s.n_components as f64);
        }
        t.push_row(vec![
            format!("{level}"),
            format!("{}", contexts.len()),
            format!("{:.1}", mean(&sizes)),
            format!("{:.3}", mean(&iso)),
            format!("{:.5}", mean(&dens)),
            format!("{:.1}", mean(&comps)),
        ]);
    }
    // Whole-corpus reference row.
    let global = citegraph::graph_stats(&engine.index().graph);
    t.push_row(vec![
        "whole corpus".into(),
        "1".into(),
        format!("{}", global.n_nodes),
        format!("{:.3}", global.isolated_fraction()),
        format!("{:.5}", global.density),
        format!("{}", global.n_components),
    ]);
    vec![t]
}

/// Related-work comparison (§6): a GoPubMed-style system categorizes
/// keyword hits under GO terms by abstract word containment, with no
/// ranking. We measure its categorization coverage (the paper reports
/// 78 % for PubMed abstracts) against context-based search's coverage
/// of the same hits via assignment membership.
pub fn related_gopubmed(setup: &Setup) -> Vec<Table> {
    use context_search::search::gopubmed::gopubmed_search;
    let engine = &setup.searcher;
    let mut coverages = Vec::new();
    let mut specific_coverages = Vec::new();
    let mut n_categories = Vec::new();
    let mut assigned_coverage = Vec::new();
    for q in setup.queries.iter().take(40) {
        let r = gopubmed_search(
            engine.ontology(),
            engine.corpus(),
            engine.index(),
            &q.text,
            0.10,
        );
        if r.n_hits == 0 {
            continue;
        }
        coverages.push(r.coverage());
        n_categories.push(r.categories.len() as f64);
        // Coverage by *specific* terms only (level ≥ 4): shallow terms
        // like the roots categorize trivially (their few name words are
        // everywhere), which is the weakness the paper points at.
        let specific_hits: std::collections::HashSet<corpus::PaperId> = r
            .categories
            .iter()
            .filter(|(c, _)| engine.ontology().level(*c) >= 4)
            .flat_map(|(_, ps)| ps.iter().copied())
            .collect();
        specific_coverages.push(specific_hits.len() as f64 / r.n_hits as f64);
        // Context-based assignment coverage of the same hits.
        let hits: Vec<corpus::PaperId> = engine
            .snapshot()
            .keyword_search(&q.text, 0.10)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        let covered = hits
            .iter()
            .filter(|&&p| {
                setup
                    .pattern_sets
                    .contexts()
                    .any(|c| setup.pattern_sets.is_member(c, p))
            })
            .count();
        assigned_coverage.push(covered as f64 / hits.len() as f64);
    }
    let mut t = Table::new(
        "Related work — GoPubMed-style categorization vs context assignment",
        &["metric", "value"],
    );
    t.push_numeric_row(
        "GoPubMed-style abstract-word coverage (paper: 0.78 on PubMed)",
        &[mean(&coverages)],
    );
    t.push_numeric_row(
        "…by specific terms only (level ≥ 4)",
        &[mean(&specific_coverages)],
    );
    t.push_numeric_row("mean categories per query", &[mean(&n_categories)]);
    t.push_numeric_row(
        "context-assignment coverage of the same hits",
        &[mean(&assigned_coverage)],
    );
    vec![t]
}

/// Ablations over the design choices DESIGN.md calls out.
pub fn ablations(setup: &Setup) -> Vec<Table> {
    let mut tables = Vec::new();
    let engine = &setup.searcher;
    let population = setup
        .pattern_sets
        .contexts_with_min_size(setup.config.min_context_size);

    // 1. Teleport E1 (constant) vs E2 (mass-proportional).
    {
        let mut cfg = engine.config().clone();
        cfg.pagerank.teleport = citegraph::TeleportMode::Constant;
        let e1 = citation_prestige(&setup.pattern_sets, &engine.index().graph, &cfg);
        let e2 = &setup.citation_on_pattern;
        let mut overlaps = Vec::new();
        let mut rho = Vec::new();
        for &c in &population {
            let a: Vec<(u32, f64)> = e1.scores(c).iter().map(|&(p, s)| (p.0, s)).collect();
            let b: Vec<(u32, f64)> = e2.scores(c).iter().map(|&(p, s)| (p.0, s)).collect();
            if a.len() < 5 {
                continue;
            }
            overlaps.push(top_k_percent_overlap(&a, &b, 0.10));
            let va: Vec<f64> = a.iter().map(|&(_, s)| s).collect();
            let vb: Vec<f64> = b.iter().map(|&(_, s)| s).collect();
            rho.push(eval::stats::spearman(&va, &vb));
        }
        let mut t = Table::new(
            "Ablation — PageRank teleport E1 (constant) vs E2 (mass-proportional)",
            &["metric", "value"],
        );
        t.push_numeric_row("mean top-10% overlap", &[mean(&overlaps)]);
        t.push_numeric_row("mean Spearman rho", &[mean(&rho)]);
        tables.push(t);
    }

    // 2. HITS authorities vs PageRank (the paper's ref [11] found them
    // highly correlated), both on the global graph and per context.
    {
        let hits = citegraph::hits(&engine.index().graph, &citegraph::HitsConfig::default());
        let rho = eval::stats::spearman(&hits.authorities, &engine.index().global_pagerank);
        let hits_prestige =
            hits_citation_prestige(&setup.pattern_sets, &engine.index().graph, engine.config());
        let mut per_context_rho = Vec::new();
        for &c in &population {
            let a: Vec<f64> = setup
                .citation_on_pattern
                .scores(c)
                .iter()
                .map(|&(_, s)| s)
                .collect();
            let b: Vec<f64> = hits_prestige.scores(c).iter().map(|&(_, s)| s).collect();
            if a.len() >= 10 && a.len() == b.len() {
                per_context_rho.push(eval::stats::spearman(&a, &b));
            }
        }
        let mut t = Table::new(
            "Ablation — HITS authority vs PageRank correlation",
            &["metric", "value"],
        );
        t.push_numeric_row("Spearman rho (global graph)", &[rho]);
        t.push_numeric_row("mean Spearman rho (per context)", &[mean(&per_context_rho)]);
        tables.push(t);
    }

    // 3. Simplified (middle-only, §4) vs full (§3.3) pattern matching.
    {
        let full = engine.snapshot().prestige_with_options(
            &setup.pattern_sets,
            ScoreFunction::Pattern,
            false,
            true,
        );
        let simp = &setup.pattern_on_pattern;
        let mut overlaps = Vec::new();
        let (mut sd_full, mut sd_simp) = (Vec::new(), Vec::new());
        for &c in &population {
            let a: Vec<(u32, f64)> = full.scores(c).iter().map(|&(p, s)| (p.0, s)).collect();
            let b: Vec<(u32, f64)> = simp.scores(c).iter().map(|&(p, s)| (p.0, s)).collect();
            if a.len() < 5 {
                continue;
            }
            overlaps.push(top_k_percent_overlap(&a, &b, 0.10));
            sd_full.push(separability_sd(
                &a.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
                10,
            ));
            sd_simp.push(separability_sd(
                &b.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
                10,
            ));
        }
        let mut t = Table::new(
            "Ablation — simplified (middle-only) vs full pattern matching",
            &["metric", "value"],
        );
        t.push_numeric_row("mean top-10% overlap", &[mean(&overlaps)]);
        t.push_numeric_row("mean SD (full matching)", &[mean(&sd_full)]);
        t.push_numeric_row("mean SD (simplified)", &[mean(&sd_simp)]);
        tables.push(t);
    }

    // 4. Extended patterns (side-/middle-joined, §3.3) on vs off.
    {
        let mut cfg = engine.config().clone();
        cfg.use_extended_patterns = true;
        let pats_ext = context_search::assign::patterns_by_context(
            engine.ontology(),
            engine.corpus(),
            engine.index(),
            &cfg,
        );
        let ext = pattern_prestige(
            engine.ontology(),
            &setup.pattern_sets,
            engine.corpus(),
            engine.index(),
            &pats_ext,
            &cfg,
            false,
        );
        let mut overlaps = Vec::new();
        for &c in &population {
            let a: Vec<(u32, f64)> = ext.scores(c).iter().map(|&(p, s)| (p.0, s)).collect();
            let b: Vec<(u32, f64)> = setup
                .pattern_on_pattern
                .scores(c)
                .iter()
                .map(|&(p, s)| (p.0, s))
                .collect();
            if a.len() >= 5 {
                overlaps.push(top_k_percent_overlap(&a, &b, 0.10));
            }
        }
        let mut t = Table::new(
            "Ablation — extended patterns on vs off (top-10% overlap with baseline)",
            &["metric", "value"],
        );
        t.push_numeric_row("mean top-10% overlap", &[mean(&overlaps)]);
        tables.push(t);
    }

    // 6 (§7 future work). Weighted cross-context citation
    // relationships vs the plain within-context-only function.
    {
        let weighted = engine.snapshot().weighted_citation_prestige(
            &setup.pattern_sets,
            &context_search::prestige::citation_weighted::CrossContextWeights::default(),
        );
        let plain = &setup.citation_on_pattern;
        let (mut tie_plain, mut tie_weighted) = (Vec::new(), Vec::new());
        let mut overlaps = Vec::new();
        for &c in &population {
            let a: Vec<(u32, f64)> = plain.scores(c).iter().map(|&(p, s)| (p.0, s)).collect();
            let b: Vec<(u32, f64)> = weighted.scores(c).iter().map(|&(p, s)| (p.0, s)).collect();
            if a.len() < 5 {
                continue;
            }
            overlaps.push(top_k_percent_overlap(&a, &b, 0.10));
            let tie_frac = |v: &[(u32, f64)]| {
                let distinct: std::collections::HashSet<u64> =
                    v.iter().map(|&(_, s)| s.to_bits()).collect();
                1.0 - distinct.len() as f64 / v.len() as f64
            };
            tie_plain.push(tie_frac(&a));
            tie_weighted.push(tie_frac(&b));
        }
        let p_weighted = precision_curves(setup, &setup.pattern_sets, &weighted);
        let p_plain = precision_curves(setup, &setup.pattern_sets, plain);
        let t_idx = setup
            .config
            .thresholds
            .iter()
            .position(|&t| (t - 0.2).abs() < 1e-9)
            .unwrap_or(0);
        let mut t = Table::new(
            "Ablation — §7 weighted cross-context citations vs plain citation function",
            &["metric", "plain", "weighted"],
        );
        t.push_numeric_row(
            "mean tie fraction (score collisions)",
            &[mean(&tie_plain), mean(&tie_weighted)],
        );
        t.push_numeric_row(
            "avg precision @ t=0.2",
            &[p_plain.average[t_idx], p_weighted.average[t_idx]],
        );
        t.push_row(vec![
            "mean top-10% overlap with plain".into(),
            "1.000".into(),
            format!("{:.3}", mean(&overlaps)),
        ]);
        tables.push(t);
    }

    // 5. Hierarchy max-propagation on vs off: effect on precision@0.2.
    {
        let no_prop = engine.snapshot().prestige_with_options(
            &setup.pattern_sets,
            ScoreFunction::Pattern,
            true,
            false,
        );
        let t_idx = setup
            .config
            .thresholds
            .iter()
            .position(|&t| (t - 0.2).abs() < 1e-9)
            .unwrap_or(0);
        let with = precision_curves(setup, &setup.pattern_sets, &setup.pattern_on_pattern);
        let without = precision_curves(setup, &setup.pattern_sets, &no_prop);
        let mut t = Table::new(
            "Ablation — hierarchy max-propagation (precision at t=0.2)",
            &["variant", "avg precision", "median precision"],
        );
        t.push_row(vec![
            "with propagation".into(),
            format!("{:.3}", with.average[t_idx]),
            format!("{:.3}", with.median[t_idx]),
        ]);
        t.push_row(vec![
            "without propagation".into(),
            format!("{:.3}", without.average[t_idx]),
            format!("{:.3}", without.median[t_idx]),
        ]);
        tables.push(t);
    }

    tables
}

/// Descriptive statistics of the generated testbed (provenance for
/// EXPERIMENTS.md).
pub fn testbed_stats(setup: &Setup) -> Vec<Table> {
    let stats = corpus::stats::CorpusStats::compute(setup.searcher.corpus());
    let onto = setup.searcher.ontology();
    let mut t = Table::new("Testbed statistics", &["metric", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("ontology terms", onto.len().to_string()),
        ("ontology max level", onto.max_level().to_string()),
        ("papers", stats.n_papers.to_string()),
        ("authors", stats.n_authors.to_string()),
        ("citation edges", stats.n_citations.to_string()),
        (
            "mean references/paper",
            format!("{:.1}", stats.mean_references),
        ),
        ("vocabulary size", stats.vocab_size.to_string()),
        ("terms with evidence", stats.terms_with_evidence.to_string()),
        (
            "text-based contexts",
            setup.text_sets.n_contexts().to_string(),
        ),
        (
            "pattern-based contexts",
            setup.pattern_sets.n_contexts().to_string(),
        ),
        (
            "experiment contexts (≥ min size, pattern set)",
            setup
                .pattern_sets
                .contexts_with_min_size(setup.config.min_context_size)
                .len()
                .to_string(),
        ),
        ("queries", setup.queries.len().to_string()),
    ];
    for (k, v) in rows {
        t.push_row(vec![k.to_string(), v]);
    }
    vec![t]
}
