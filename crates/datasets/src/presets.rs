//! The five dataset presets mirroring Table 4 (scaled; see DESIGN.md §4).
//!
//! | preset    | paper source                | sizes (paper) | sizes (ours) |
//! |-----------|-----------------------------|---------------|--------------|
//! | Citations | DBLP ↔ ACM                  | 2,614 / 2,294 | 520 / 460    |
//! | Anime     | MyAnimeList ↔ Anime Planet  | 4,000 / 4,000 | 600 / 600    |
//! | Bikes     | Bikedekho ↔ Bikewale        | 4,786 / 9,003 | 480 / 900    |
//! | EBooks    | iTunes ↔ eBooks             | 6,500 / 14,112| 460 / 1,000  |
//! | Songs     | self-join, 1M songs         | 1M / 1M       | 1,500 / 1,500|
//!
//! Scaling keeps every *relative* property the evaluation depends on:
//! source-size ratios, match density, attribute arity, and token-set
//! geometry (EBooks gets a 36-token description attribute, which makes it
//! the slowest dataset exactly as in Figures 5(b)/6).

use crate::generator::{generate, AttrKind, AttrSpec, Dataset, DatasetSpec, GenOptions};

/// The five evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// DBLP↔ACM citations analog (4 attributes, clean matches).
    Citations,
    /// Anime catalogs analog.
    Anime,
    /// Bike listings analog (asymmetric source sizes).
    Bikes,
    /// EBook stores analog (long description attribute).
    EBooks,
    /// Million-song self-join analog (largest).
    Songs,
}

impl Preset {
    /// All presets in the paper's order.
    pub fn all() -> [Preset; 5] {
        [
            Preset::Citations,
            Preset::Anime,
            Preset::Bikes,
            Preset::EBooks,
            Preset::Songs,
        ]
    }

    /// The paper's dataset label.
    pub fn name(&self) -> &'static str {
        match self {
            Preset::Citations => "Citations",
            Preset::Anime => "Anime",
            Preset::Bikes => "Bikes",
            Preset::EBooks => "EBooks",
            Preset::Songs => "Songs",
        }
    }

    /// The generator spec for this preset.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            Preset::Citations => DatasetSpec {
                name: "Citations",
                attrs: vec![
                    AttrSpec {
                        name: "venue",
                        kind: AttrKind::Category,
                    },
                    AttrSpec {
                        name: "title",
                        kind: AttrKind::EntityName { tokens: 5 },
                    },
                    AttrSpec {
                        name: "authors",
                        kind: AttrKind::EntityName { tokens: 3 },
                    },
                    AttrSpec {
                        name: "keywords",
                        kind: AttrKind::TopicPhrase { base: 2, noise: 3 },
                    },
                ],
                topics: 8,
                vocab_per_topic: 24,
                size_a: 520,
                size_b: 460,
                match_fraction: 0.9,
                perturbation: 0.17,
            },
            Preset::Anime => DatasetSpec {
                name: "Anime",
                attrs: vec![
                    AttrSpec {
                        name: "type",
                        kind: AttrKind::Category,
                    },
                    AttrSpec {
                        name: "title",
                        kind: AttrKind::EntityName { tokens: 4 },
                    },
                    AttrSpec {
                        name: "genres",
                        kind: AttrKind::TopicPhrase { base: 2, noise: 2 },
                    },
                    AttrSpec {
                        name: "studio",
                        kind: AttrKind::EntityName { tokens: 2 },
                    },
                ],
                topics: 8,
                vocab_per_topic: 20,
                size_a: 600,
                size_b: 600,
                match_fraction: 0.75,
                perturbation: 0.2,
            },
            Preset::Bikes => DatasetSpec {
                name: "Bikes",
                attrs: vec![
                    AttrSpec {
                        name: "segment",
                        kind: AttrKind::Category,
                    },
                    AttrSpec {
                        name: "model",
                        kind: AttrKind::EntityName { tokens: 4 },
                    },
                    AttrSpec {
                        name: "brand",
                        kind: AttrKind::EntityName { tokens: 2 },
                    },
                    AttrSpec {
                        name: "specs",
                        kind: AttrKind::TopicPhrase { base: 2, noise: 4 },
                    },
                ],
                topics: 8,
                vocab_per_topic: 28,
                size_a: 480,
                size_b: 900,
                match_fraction: 0.5,
                perturbation: 0.2,
            },
            Preset::EBooks => DatasetSpec {
                name: "EBooks",
                attrs: vec![
                    AttrSpec {
                        name: "genre",
                        kind: AttrKind::Category,
                    },
                    AttrSpec {
                        name: "title",
                        kind: AttrKind::EntityName { tokens: 4 },
                    },
                    AttrSpec {
                        name: "author",
                        kind: AttrKind::EntityName { tokens: 2 },
                    },
                    // The paper: "EBooks has significantly larger token
                    // sizes on some attributes (e.g., description)".
                    AttrSpec {
                        name: "description",
                        kind: AttrKind::Description { tokens: 36 },
                    },
                ],
                topics: 8,
                vocab_per_topic: 40,
                size_a: 460,
                size_b: 1000,
                match_fraction: 0.42,
                perturbation: 0.2,
            },
            Preset::Songs => DatasetSpec {
                name: "Songs",
                attrs: vec![
                    AttrSpec {
                        name: "era",
                        kind: AttrKind::Category,
                    },
                    AttrSpec {
                        name: "title",
                        kind: AttrKind::EntityName { tokens: 4 },
                    },
                    AttrSpec {
                        name: "artist",
                        kind: AttrKind::EntityName { tokens: 2 },
                    },
                    AttrSpec {
                        name: "album",
                        kind: AttrKind::TopicPhrase { base: 1, noise: 3 },
                    },
                ],
                topics: 10,
                vocab_per_topic: 24,
                size_a: 1500,
                size_b: 1500,
                match_fraction: 0.65,
                perturbation: 0.2,
            },
        }
    }
}

/// Generates a preset dataset with the given options.
pub fn preset(p: Preset, opts: &GenOptions) -> Dataset {
    generate(&p.spec(), opts)
}

/// Arrival-pattern shape of a [`ScaleProfile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleShape {
    /// Uniform topics, steady arrival rate (the baseline shape).
    Uniform,
    /// Zipf-skewed topic popularity — a few topics run hot, the
    /// skewed-entity shape of production key distributions.
    HotKey {
        /// Skew exponent fed to [`GenOptions::entity_skew`].
        skew: f64,
    },
    /// A steady trickle punctuated by large bursts: every `period`-th
    /// batch carries `amplitude ×` the mean batch size, the rest shrink
    /// to keep the long-run rate unchanged.
    Bursty {
        /// Burst size as a multiple of the mean batch size.
        amplitude: usize,
        /// Batches per burst cycle (burst + quiet tail).
        period: usize,
    },
}

/// A production-scale run shape: a preset pushed 10–100× past its Table-4
/// size, with the window sized so ~10⁴–10⁵ tuples are live at once.
/// These drive the incremental-checkpoint experiments (fig. 19): at
/// these window sizes a full snapshot costs tens of megabytes, so
/// checkpoint cost must track *churn*, not window size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleProfile {
    /// Stable profile name (bench JSON + CLI).
    pub name: &'static str,
    /// The Table-4 preset being scaled.
    pub preset: Preset,
    /// Generator scale multiplier.
    pub scale: f64,
    /// Sliding-window capacity the profile is meant to run with.
    pub window: usize,
    /// Arrival/topic shape.
    pub shape: ScaleShape,
}

impl ScaleProfile {
    /// All scale profiles, smallest first.
    pub fn all() -> [ScaleProfile; 4] {
        [
            Self::scale10(),
            Self::scale100(),
            Self::hotkey100(),
            Self::burst100(),
        ]
    }

    /// ~10× EBooks (the token-heaviest preset): ≈ 17.5 k arrivals,
    /// 10⁴-tuple window.
    pub fn scale10() -> Self {
        Self {
            name: "scale10",
            preset: Preset::EBooks,
            scale: 12.0,
            window: 10_000,
            shape: ScaleShape::Uniform,
        }
    }

    /// ~120× Citations: ≈ 117 k arrivals, 10⁵-tuple window.
    pub fn scale100() -> Self {
        Self {
            name: "scale100",
            preset: Preset::Citations,
            scale: 120.0,
            window: 100_000,
            shape: ScaleShape::Uniform,
        }
    }

    /// [`ScaleProfile::scale100`] with hot-key topic skew.
    pub fn hotkey100() -> Self {
        Self {
            name: "hotkey100",
            preset: Preset::Citations,
            scale: 120.0,
            window: 100_000,
            shape: ScaleShape::HotKey { skew: 1.2 },
        }
    }

    /// [`ScaleProfile::scale100`] with bursty arrivals: every 10th batch
    /// is an 8× burst.
    pub fn burst100() -> Self {
        Self {
            name: "burst100",
            preset: Preset::Citations,
            scale: 120.0,
            window: 100_000,
            shape: ScaleShape::Bursty {
                amplitude: 8,
                period: 10,
            },
        }
    }

    /// Looks a profile up by [`ScaleProfile::name`].
    pub fn by_name(name: &str) -> Option<ScaleProfile> {
        Self::all().into_iter().find(|p| p.name == name)
    }

    /// Generator options for this profile. Starts from `base` (seed,
    /// missing-value knobs) and overrides what the scale demands: the
    /// stream multiplier, the topic skew, and a *small* repository ratio
    /// — at 10⁵ arrivals the Table-4 ratio of 0.3 would spend the whole
    /// run budget building the offline context, and imputation support
    /// needs absolute repository size, not a fixed stream fraction.
    pub fn gen_options(&self, base: GenOptions) -> GenOptions {
        GenOptions {
            scale: self.scale,
            repo_ratio: (60.0 / (self.scale * 100.0)).min(base.repo_ratio),
            entity_skew: match self.shape {
                ScaleShape::HotKey { skew } => skew,
                _ => base.entity_skew,
            },
            ..base
        }
    }

    /// The deterministic batch-size schedule realizing this profile's
    /// arrival shape over `total` arrivals at long-run mean `mean` per
    /// batch. Uniform and hot-key shapes emit constant batches; the
    /// bursty shape alternates `amplitude × mean` bursts with a quiet
    /// tail of shrunken batches, preserving the long-run rate. Sizes are
    /// positive and sum to exactly `total`.
    pub fn batch_sizes(&self, total: usize, mean: usize) -> Vec<usize> {
        let mean = mean.max(1);
        let mut sizes = Vec::new();
        let mut left = total;
        let mut i = 0usize;
        while left > 0 {
            let want = match self.shape {
                ScaleShape::Bursty { amplitude, period } => {
                    let period = period.max(2);
                    if i % period == 0 {
                        mean * amplitude.max(1)
                    } else {
                        // Quiet tail: spread the remaining cycle budget
                        // (period × mean − burst) over period − 1 batches.
                        let cycle = mean * period;
                        let quiet = cycle.saturating_sub(mean * amplitude.max(1));
                        (quiet / (period - 1)).max(1)
                    }
                }
                _ => mean,
            };
            let take = want.min(left);
            sizes.push(take);
            left -= take;
            i += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_generate_small_scale() {
        let opts = GenOptions {
            scale: 0.1,
            ..GenOptions::default()
        };
        for p in Preset::all() {
            let ds = preset(p, &opts);
            assert!(!ds.streams.stream(0).is_empty(), "{}", p.name());
            assert!(!ds.entity_pairs.is_empty(), "{}", p.name());
            assert!(!ds.repo.is_empty(), "{}", p.name());
        }
    }

    #[test]
    fn ebooks_has_the_largest_token_sets() {
        let opts = GenOptions {
            scale: 0.2,
            ..GenOptions::default()
        };
        let avg_max_tokens = |p: Preset| -> f64 {
            let ds = preset(p, &opts);
            let recs = ds.clean_streams.stream(0);
            let total: usize = recs
                .iter()
                .map(|r| {
                    r.attrs
                        .iter()
                        .map(|a| a.as_ref().unwrap().len())
                        .max()
                        .unwrap()
                })
                .sum();
            total as f64 / recs.len() as f64
        };
        let ebooks = avg_max_tokens(Preset::EBooks);
        for p in [
            Preset::Citations,
            Preset::Anime,
            Preset::Bikes,
            Preset::Songs,
        ] {
            assert!(
                ebooks > 1.5 * avg_max_tokens(p),
                "EBooks should dominate {}",
                p.name()
            );
        }
    }

    #[test]
    fn source_size_ratios_follow_table_4() {
        // Bikes and EBooks have B roughly twice A, like the originals.
        let bikes = Preset::Bikes.spec();
        assert!(bikes.size_b as f64 / bikes.size_a as f64 > 1.5);
        let ebooks = Preset::EBooks.spec();
        assert!(ebooks.size_b as f64 / ebooks.size_a as f64 > 1.8);
        let songs = Preset::Songs.spec();
        assert_eq!(songs.size_a, songs.size_b);
    }

    #[test]
    fn scale_profiles_are_well_formed() {
        for p in ScaleProfile::all() {
            assert!(p.scale >= 10.0, "{}: production scale is ≥10×", p.name);
            assert!(p.window >= 10_000, "{}", p.name);
            assert_eq!(ScaleProfile::by_name(p.name), Some(p));
            let opts = p.gen_options(GenOptions::default());
            assert!(opts.repo_ratio <= 0.05, "{}: repo must stay small", p.name);
            // Batch schedules cover the stream exactly, whatever the shape.
            for total in [0usize, 1, 999, 10_000] {
                let sizes = p.batch_sizes(total, 100);
                assert_eq!(sizes.iter().sum::<usize>(), total, "{}", p.name);
                assert!(sizes.iter().all(|&s| s > 0), "{}", p.name);
            }
        }
        assert_eq!(ScaleProfile::by_name("nope"), None);
    }

    #[test]
    fn bursty_schedule_alternates_bursts_and_trickle() {
        let p = ScaleProfile::burst100();
        let sizes = p.batch_sizes(10_000, 100);
        assert_eq!(sizes[0], 800, "8× burst");
        assert!(
            sizes[1..10].iter().all(|&s| s == 22),
            "quiet tail: {sizes:?}"
        );
        // Long-run rate preserved: one cycle carries ~period × mean.
        let cycle: usize = sizes[..10].iter().sum();
        assert!((900..=1100).contains(&cycle), "cycle {cycle}");
    }

    #[test]
    fn suggested_keywords_are_parseable() {
        let opts = GenOptions {
            scale: 0.1,
            ..GenOptions::default()
        };
        let ds = preset(Preset::Citations, &opts);
        let kw = ds.keywords();
        assert!(!kw.is_empty());
    }
}
