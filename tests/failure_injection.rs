//! Failure injection: degenerate inputs the engine must survive without
//! panicking and with sensible semantics.

use ter_datasets::{generate, preset, AttrKind, AttrSpec, DatasetSpec, GenOptions, Preset};
use ter_ids::{ErProcessor, NaiveEngine, Params, PruningMode, TerContext, TerIdsEngine};
use ter_repo::{PivotConfig, Record, Repository, Schema};
use ter_rules::DiscoveryConfig;
use ter_stream::StreamSet;
use ter_text::{Dictionary, KeywordSet};

fn tiny_ctx(keywords: KeywordSet) -> (TerContext, Schema, Dictionary) {
    let schema = Schema::new(vec!["a", "b"]);
    let mut dict = Dictionary::new();
    let recs = vec![
        Record::from_texts(&schema, 100, &[Some("alpha beta"), Some("red")], &mut dict),
        Record::from_texts(
            &schema,
            101,
            &[Some("gamma delta"), Some("blue")],
            &mut dict,
        ),
    ];
    let repo = Repository::from_records(schema.clone(), recs);
    let ctx = TerContext::build(
        repo,
        keywords,
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        16,
    );
    (ctx, schema, dict)
}

#[test]
fn empty_keyword_set_reports_nothing() {
    let (ctx, schema, mut dict) = {
        let d = Dictionary::new();
        let kw = KeywordSet::parse("", &d); // empty, not universe
        tiny_ctx(kw)
    };
    let s0 = vec![Record::from_texts(
        &schema,
        1,
        &[Some("alpha beta"), Some("red")],
        &mut dict,
    )];
    let s1 = vec![Record::from_texts(
        &schema,
        2,
        &[Some("alpha beta"), Some("red")],
        &mut dict,
    )];
    let mut e = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
    for a in StreamSet::new(vec![s0, s1]).arrivals() {
        e.process(&a);
    }
    // Identical tuples, but no keyword can ever match → empty result.
    assert!(e.reported().is_empty());
    // Everything must have been pruned by the topic rule.
    let st = e.prune_stats();
    assert_eq!(st.topic, st.total_pairs);
}

#[test]
fn unknown_keywords_behave_like_empty() {
    let d = Dictionary::new();
    let kw = KeywordSet::parse("entirely unknown words", &d);
    assert!(kw.is_empty());
}

#[test]
fn all_attributes_missing_tuple_is_survivable() {
    let (ctx, schema, mut dict) = tiny_ctx(KeywordSet::universe());
    let s0 = vec![Record::from_texts(&schema, 1, &[None, None], &mut dict)];
    let s1 = vec![Record::from_texts(
        &schema,
        2,
        &[Some("alpha beta"), Some("red")],
        &mut dict,
    )];
    let mut e = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
    for a in StreamSet::new(vec![s0, s1]).arrivals() {
        e.process(&a); // must not panic
    }
    // No rule can fire with zero present determinants → tuple 1 imputes to
    // empty values and cannot reach γ = 1.0.
    assert!(e.reported().is_empty());
}

#[test]
fn all_attributes_missing_mid_window_is_skipped_with_count_not_fatal() {
    // Previously only tested as the *first* arrival; here the fully-missing
    // tuple lands mid-window, with live tuples on both streams, stepped
    // one arrival and one batch at a time. Contract: the arrival is
    // *skipped with count* — it enters the window and is accounted as a
    // candidate pair for later arrivals (no silent drop), but with zero
    // present determinants no rule fires, its imputation is empty, and it
    // can never reach γ — and the engine must not panic.
    let (ctx, schema, mut dict) = tiny_ctx(KeywordSet::universe());
    let s0 = vec![
        Record::from_texts(&schema, 1, &[Some("alpha beta"), Some("red")], &mut dict),
        Record::from_texts(&schema, 3, &[None, None], &mut dict), // mid-window
        Record::from_texts(&schema, 5, &[Some("alpha beta"), Some("red")], &mut dict),
    ];
    let s1 = vec![
        Record::from_texts(&schema, 2, &[Some("alpha beta"), Some("red")], &mut dict),
        Record::from_texts(&schema, 4, &[Some("gamma delta"), Some("blue")], &mut dict),
    ];
    let streams = StreamSet::new(vec![s0, s1]);
    let arrivals = streams.arrivals();

    let mut seq = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
    let mut missing_step_matches = None;
    let mut pairs_counted_by_missing = 0;
    for a in &arrivals {
        let pairs_before = seq.prune_stats().total_pairs;
        let out = seq.process(a); // must not panic on the all-missing tuple
        if a.record.id == 3 {
            missing_step_matches = Some(out.new_matches);
            pairs_counted_by_missing = seq.prune_stats().total_pairs - pairs_before;
        }
    }
    // Skip-with-count: the fully-missing arrival reports nothing itself …
    assert_eq!(missing_step_matches, Some(vec![]));
    // … but its candidate pairs were counted, not silently dropped (one
    // other-stream tuple, id 2, was live when it arrived).
    assert_eq!(pairs_counted_by_missing, 1);
    // It stays live in the window like any other tuple …
    assert!(seq.live_ids().contains(&3));
    assert_eq!(seq.window_len(), 5);
    // … its imputation is the empty-candidate placeholder, not absent …
    let meta = seq.meta(3).expect("fully-missing tuple must have metadata");
    assert_eq!(meta.tuple.instance_count(), 1);
    // … and no pair involving it is ever reported.
    assert!(seq.reported().iter().all(|&(a, b)| a != 3 && b != 3));
    assert!(seq.reported().contains(&(1, 2)));

    // The batched drive must take the identical decisions.
    let mut par = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
    par.step_batch(&arrivals); // must not panic either
    let mut seq_rep: Vec<_> = seq.reported().iter().copied().collect();
    let mut par_rep: Vec<_> = par.reported().iter().copied().collect();
    seq_rep.sort_unstable();
    par_rep.sort_unstable();
    assert_eq!(par_rep, seq_rep);
    assert_eq!(par.prune_stats(), seq.prune_stats());
    assert_eq!(par.live_ids(), seq.live_ids());
}

#[test]
fn empty_repository_rules_disable_imputation_but_not_er() {
    // A repository with a single record yields no rules at all; complete
    // tuples must still match each other.
    let schema = Schema::new(vec!["a", "b"]);
    let mut dict = Dictionary::new();
    let repo = Repository::from_records(
        schema.clone(),
        vec![Record::from_texts(
            &schema,
            100,
            &[Some("x"), Some("y")],
            &mut dict,
        )],
    );
    let ctx = TerContext::build(
        repo,
        KeywordSet::universe(),
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        16,
    );
    assert!(ctx.cdds.is_empty());
    let s0 = vec![Record::from_texts(
        &schema,
        1,
        &[Some("same thing"), Some("here")],
        &mut dict,
    )];
    let s1 = vec![Record::from_texts(
        &schema,
        2,
        &[Some("same thing"), Some("here")],
        &mut dict,
    )];
    let mut e = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
    for a in StreamSet::new(vec![s0, s1]).arrivals() {
        e.process(&a);
    }
    assert!(e.reported().contains(&(1, 2)));
}

#[test]
fn window_of_one_never_pairs() {
    let (ctx, schema, mut dict) = tiny_ctx(KeywordSet::universe());
    let s0 = vec![Record::from_texts(
        &schema,
        1,
        &[Some("alpha"), Some("red")],
        &mut dict,
    )];
    let s1 = vec![Record::from_texts(
        &schema,
        2,
        &[Some("alpha"), Some("red")],
        &mut dict,
    )];
    let params = Params {
        window: 1,
        ..Params::default()
    };
    let mut e = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    for a in StreamSet::new(vec![s0, s1]).arrivals() {
        e.process(&a);
    }
    // With w = 1 the previous tuple always expires before the next arrives.
    assert!(e.reported().is_empty());
}

#[test]
fn single_stream_yields_no_cross_stream_pairs() {
    let (ctx, schema, mut dict) = tiny_ctx(KeywordSet::universe());
    let s0 = vec![
        Record::from_texts(&schema, 1, &[Some("alpha"), Some("red")], &mut dict),
        Record::from_texts(&schema, 2, &[Some("alpha"), Some("red")], &mut dict),
    ];
    let mut e = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
    for a in StreamSet::new(vec![s0]).arrivals() {
        e.process(&a);
    }
    // Identical tuples but the same stream → out of scope by definition.
    assert!(e.reported().is_empty());
}

#[test]
fn extreme_missing_rate_all_methods_survive() {
    let spec = DatasetSpec {
        name: "extreme",
        attrs: vec![
            AttrSpec {
                name: "category",
                kind: AttrKind::Category,
            },
            AttrSpec {
                name: "name",
                kind: AttrKind::EntityName { tokens: 3 },
            },
            AttrSpec {
                name: "tags",
                kind: AttrKind::TopicPhrase { base: 3, noise: 1 },
            },
        ],
        topics: 2,
        vocab_per_topic: 10,
        size_a: 30,
        size_b: 30,
        match_fraction: 0.5,
        perturbation: 0.1,
    };
    let ds = generate(
        &spec,
        &GenOptions {
            missing_rate: 0.8, // the paper's hardest ξ
            missing_attrs: 2,  // m = d − 1
            ..GenOptions::default()
        },
    );
    let ctx = TerContext::build(
        ds.repo.clone(),
        KeywordSet::universe(),
        &PivotConfig::default(),
        &DiscoveryConfig {
            min_support: 2,
            min_constant_support: 2,
            ..DiscoveryConfig::default()
        },
        8,
    );
    let params = Params {
        window: 20,
        ..Params::default()
    };
    let mut full = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    let mut oracle = NaiveEngine::cdd_er(&ctx, params);
    for a in ds.streams.arrivals() {
        full.process(&a);
        oracle.process(&a);
    }
    let mut x: Vec<_> = full.reported().iter().copied().collect();
    let mut y: Vec<_> = oracle.reported().iter().copied().collect();
    x.sort_unstable();
    y.sort_unstable();
    assert_eq!(x, y, "engine diverged from oracle under ξ=0.8, m=2");
}

#[test]
fn songs_scale_smoke() {
    // Largest preset at reduced scale: only the indexed engine (a full
    // baseline sweep at this size belongs to the bench harness).
    let ds = preset(
        Preset::Songs,
        &GenOptions {
            scale: 0.1,
            ..GenOptions::default()
        },
    );
    let ctx = TerContext::build(
        ds.repo.clone(),
        ds.keywords(),
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        16,
    );
    let mut e = TerIdsEngine::new(
        &ctx,
        Params {
            window: 100,
            ..Params::default()
        },
        PruningMode::Full,
    );
    for a in ds.streams.arrivals() {
        e.process(&a);
    }
    assert!(e.prune_stats().total_pairs > 0);
}
