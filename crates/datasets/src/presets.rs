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
