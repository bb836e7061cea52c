//! Evaluation datasets calibrated to Table I of the paper.
//!
//! The paper evaluates on seven public networks. Those files are not
//! available offline, so each dataset is synthesised by a generator chosen
//! to match the network's *family* (institutional email, trust network,
//! social friendship, co-authorship, check-in, mega-scale friendship) and
//! calibrated to Table I's `|V|`, `|E|`, directedness and average degree.
//! Real SNAP edge lists can be substituted via [`crate::io::read_edge_list`]
//! without touching any downstream code.
//!
//! | Dataset    | \|V\|  | \|E\|   | Type       | Avg. degree | Generator |
//! |------------|--------|---------|------------|-------------|-----------|
//! | Email      | 1K     | 25.6K   | Directed   | 25.44       | directed preferential |
//! | Bitcoin    | 5.9K   | 35.6K   | Directed   | 6.05        | directed preferential |
//! | LastFM     | 7.6K   | 27.8K   | Undirected | 7.29        | Barabási–Albert |
//! | HepPh      | 12K    | 118.5K  | Undirected | 19.74       | Holme–Kim |
//! | Facebook   | 22.5K  | 171K    | Undirected | 15.22       | Holme–Kim |
//! | Gowalla    | 196K   | 950.3K  | Undirected | 9.67        | Barabási–Albert |
//! | Friendster | 65.6M  | 1.8B    | Undirected | 55.06       | Holme–Kim (scaled) |

use crate::csr::Graph;
use crate::generators;
use privim_rt::Rng;

/// The seven evaluation datasets of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// European research-institution email network (directed, dense).
    Email,
    /// Bitcoin-OTC trust network (directed, heavy-tailed in-degree).
    Bitcoin,
    /// LastFM user friendships (undirected, scale-free).
    LastFm,
    /// High-energy-physics co-authorship (undirected, highly clustered).
    HepPh,
    /// Facebook page–page mutual likes (undirected, clustered).
    Facebook,
    /// Gowalla check-in friendships (undirected, scale-free, large).
    Gowalla,
    /// Friendster friendships (undirected, mega-scale; always scaled).
    Friendster,
}

/// Static statistics of a dataset as reported in Table I.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Canonical lowercase name used on the CLI and in JSON output.
    pub name: &'static str,
    /// Paper-reported node count.
    pub nodes: usize,
    /// Paper-reported edge count (directed arcs or undirected pairs).
    pub edges: usize,
    /// Whether the network is directed.
    pub directed: bool,
    /// Paper-reported average degree.
    pub avg_degree: f64,
}

impl Dataset {
    /// All seven datasets in Table I order.
    pub const ALL: [Dataset; 7] = [
        Dataset::Email,
        Dataset::Bitcoin,
        Dataset::LastFm,
        Dataset::HepPh,
        Dataset::Facebook,
        Dataset::Gowalla,
        Dataset::Friendster,
    ];

    /// The six "main" datasets used for Figure 5 / Table II (everything but
    /// Friendster).
    pub const MAIN_SIX: [Dataset; 6] = [
        Dataset::Email,
        Dataset::Bitcoin,
        Dataset::LastFm,
        Dataset::HepPh,
        Dataset::Facebook,
        Dataset::Gowalla,
    ];

    /// Table I statistics.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Email => DatasetSpec {
                name: "email",
                nodes: 1_005,
                edges: 25_600,
                directed: true,
                avg_degree: 25.44,
            },
            Dataset::Bitcoin => DatasetSpec {
                name: "bitcoin",
                nodes: 5_900,
                edges: 35_600,
                directed: true,
                avg_degree: 6.05,
            },
            Dataset::LastFm => DatasetSpec {
                name: "lastfm",
                nodes: 7_600,
                edges: 27_800,
                directed: false,
                avg_degree: 7.29,
            },
            Dataset::HepPh => DatasetSpec {
                name: "hepph",
                nodes: 12_000,
                edges: 118_500,
                directed: false,
                avg_degree: 19.74,
            },
            Dataset::Facebook => DatasetSpec {
                name: "facebook",
                nodes: 22_500,
                edges: 171_000,
                directed: false,
                avg_degree: 15.22,
            },
            Dataset::Gowalla => DatasetSpec {
                name: "gowalla",
                nodes: 196_000,
                edges: 950_300,
                directed: false,
                avg_degree: 9.67,
            },
            Dataset::Friendster => DatasetSpec {
                name: "friendster",
                nodes: 65_600_000,
                edges: 1_800_000_000,
                directed: false,
                avg_degree: 55.06,
            },
        }
    }

    /// Parse a CLI name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Dataset> {
        let lower = name.to_ascii_lowercase();
        Dataset::ALL.into_iter().find(|d| d.spec().name == lower)
    }

    /// Generate the dataset at full Table I size. Friendster at 65.6M nodes
    /// is deliberately *not* generated here — use [`Self::generate_scaled`]
    /// (its experiment partitions a scaled instance; see DESIGN.md).
    pub fn generate(self, rng: &mut impl Rng) -> Graph {
        assert!(
            self != Dataset::Friendster,
            "Friendster must be generated via generate_scaled (65.6M nodes)"
        );
        self.generate_scaled(1.0, rng)
    }

    /// Generate the dataset with node count `scale * |V|` (minimum 64),
    /// preserving the average degree and generator family. Edge weights are
    /// the paper's evaluation setting `w = 1`.
    pub fn generate_scaled(self, scale: f64, rng: &mut impl Rng) -> Graph {
        assert!(scale > 0.0, "scale must be positive");
        let spec = self.spec();
        let n = ((spec.nodes as f64 * scale).round() as usize).max(64);
        let generated = match self {
            Dataset::Email => {
                // Dense directed network with heavy-tailed sender activity
                // (a handful of accounts send most mail). Calibrated so
                // arcs/node matches Table I's 25.44 (= |E|/|V|, directed).
                generators::directed_preferential(n, spec.avg_degree, rng)
            }
            Dataset::Bitcoin => {
                let m_out = spec.edges as f64 / spec.nodes as f64; // ≈ 6.03
                generators::directed_preferential(n, m_out, rng)
            }
            Dataset::LastFm => {
                let m = spec.edges as f64 / spec.nodes as f64; // ≈ 3.66
                generators::barabasi_albert_fractional(n, m, rng)
            }
            Dataset::HepPh => {
                let m = spec.edges as f64 / spec.nodes as f64; // ≈ 9.87
                generators::holme_kim(n, m, 0.7, rng)
            }
            Dataset::Facebook => {
                let m = spec.edges as f64 / spec.nodes as f64; // ≈ 7.6
                generators::holme_kim(n, m, 0.5, rng)
            }
            Dataset::Gowalla => {
                let m = spec.edges as f64 / spec.nodes as f64; // ≈ 4.85
                generators::barabasi_albert_fractional(n, m, rng)
            }
            Dataset::Friendster => {
                let m = spec.edges as f64 / spec.nodes as f64; // ≈ 27.5
                generators::holme_kim(n, m, 0.4, rng)
            }
        };
        // Growth models correlate node id with age (and therefore degree);
        // shuffle the labels so no downstream index-based tie-break can
        // accidentally favour hubs.
        crate::csr::relabel_shuffled(&generated, rng)
    }

    /// Default experiment scale: full size for the six main datasets, a
    /// ~0.15% sample (≈100K nodes) for Friendster.
    pub fn default_scale(self) -> f64 {
        match self {
            Dataset::Friendster => 100_000.0 / 65_600_000.0,
            _ => 1.0,
        }
    }

    /// Small scale for unit/integration tests: sub-second generation while
    /// keeping the structural family intact.
    pub fn test_scale(self) -> f64 {
        match self {
            Dataset::Email => 0.5,
            Dataset::Bitcoin => 0.1,
            Dataset::LastFm => 0.1,
            Dataset::HepPh => 0.05,
            Dataset::Facebook => 0.03,
            Dataset::Gowalla => 0.005,
            Dataset::Friendster => 2_000.0 / 65_600_000.0,
        }
    }
}

/// Measured statistics of a generated graph, for Table I reproduction.
#[derive(Clone, Debug)]
pub struct MeasuredStats {
    /// Dataset name.
    pub name: String,
    /// Generated node count.
    pub nodes: usize,
    /// Generated edge count (paper convention).
    pub edges: usize,
    /// Directedness.
    pub directed: bool,
    /// Measured average degree (paper convention).
    pub avg_degree: f64,
}

/// Measure a graph with the Table I reporting convention.
pub fn measure(name: &str, g: &Graph) -> MeasuredStats {
    let stats = crate::algo::degree_stats(g);
    MeasuredStats {
        name: name.to_string(),
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        directed: g.is_directed(),
        avg_degree: stats.mean_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_rt::ChaCha8Rng;
    use privim_rt::SeedableRng;

    #[test]
    fn names_roundtrip() {
        for d in Dataset::ALL {
            assert_eq!(Dataset::from_name(d.spec().name), Some(d));
        }
        assert_eq!(Dataset::from_name("LASTFM"), Some(Dataset::LastFm));
        assert_eq!(Dataset::from_name("nope"), None);
    }

    #[test]
    fn scaled_generation_matches_avg_degree() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for d in [Dataset::Bitcoin, Dataset::LastFm, Dataset::Facebook] {
            let g = d.generate_scaled(d.test_scale(), &mut rng);
            let m = measure(d.spec().name, &g);
            let rel = (m.avg_degree - d.spec().avg_degree).abs() / d.spec().avg_degree;
            assert!(
                rel < 0.25,
                "{}: avg degree {} vs paper {}",
                m.name,
                m.avg_degree,
                d.spec().avg_degree
            );
            assert_eq!(m.directed, d.spec().directed);
        }
    }

    #[test]
    fn email_is_directed_and_dense() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = Dataset::Email.generate_scaled(0.5, &mut rng);
        assert!(g.is_directed());
        let m = measure("email", &g);
        assert!(
            (m.avg_degree - 25.44).abs() < 5.0,
            "email avg degree {}",
            m.avg_degree
        );
    }

    #[test]
    fn friendster_full_generation_is_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Dataset::Friendster.generate(&mut rng)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn scale_floor_is_64_nodes() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let g = Dataset::LastFm.generate_scaled(1e-9, &mut rng);
        assert_eq!(g.num_nodes(), 64);
    }

    #[test]
    fn hepph_clusters_more_than_gowalla_family() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let hep = Dataset::HepPh.generate_scaled(0.05, &mut rng);
        let gow = Dataset::Gowalla.generate_scaled(0.005, &mut rng);
        let c_hep = crate::algo::avg_clustering_sampled(&hep, 200, &mut rng);
        let c_gow = crate::algo::avg_clustering_sampled(&gow, 200, &mut rng);
        assert!(c_hep > c_gow, "hepph {c_hep} vs gowalla {c_gow}");
    }

    #[test]
    fn weights_default_to_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let g = Dataset::Bitcoin.generate_scaled(0.05, &mut rng);
        assert!(g.arcs().all(|(_, _, w)| w == 1.0));
    }
}
