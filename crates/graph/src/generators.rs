//! Random graph generators used to synthesise the paper's evaluation
//! datasets (see `datasets.rs` for the calibration to Table I).
//!
//! Each generator documents which structural property it contributes:
//! degree distribution (heavy-tailed vs homogeneous) and clustering — the
//! properties that drive both IM utility and the DP noise scale.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use privim_rt::Rng;

/// G(n, m) Erdős–Rényi: exactly `m` distinct edges chosen uniformly.
/// Homogeneous (Poisson) degrees, vanishing clustering.
pub fn erdos_renyi(n: usize, m: usize, directed: bool, rng: &mut impl Rng) -> Graph {
    assert!(n >= 2, "need at least two nodes");
    let max_edges = if directed {
        n * (n - 1)
    } else {
        n * (n - 1) / 2
    };
    assert!(m <= max_edges, "too many edges requested");
    let mut b = if directed {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    // Ordered set: membership-only today, but hash iteration order must
    // never be able to reach edge order (nondeterministic-collection rule).
    let mut seen = std::collections::BTreeSet::new();
    let mut added = 0usize;
    while added < m {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u == v {
            continue;
        }
        let key = if directed || u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            b.add_edge_unit(u, v);
            added += 1;
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: each new node attaches `m`
/// edges to existing nodes with probability proportional to degree.
/// Power-law degrees, low clustering. Undirected.
pub fn barabasi_albert(n: usize, m: usize, rng: &mut impl Rng) -> Graph {
    barabasi_albert_fractional(n, m as f64, rng)
}

/// BA variant with a *fractional* mean attachment count: each arriving node
/// attaches `floor(m)` or `ceil(m)` edges with the matching probability so
/// the expected edge count is `(n - m0) * m`. Needed to hit Table I's
/// fractional average degrees (e.g. LastFM's 3.66 edges per node).
pub fn barabasi_albert_fractional(n: usize, m: f64, rng: &mut impl Rng) -> Graph {
    assert!(m >= 1.0, "attachment count must be >= 1");
    let m0 = (m.ceil() as usize + 1).min(n);
    let mut b = GraphBuilder::new_undirected(n);
    // `targets` holds one entry per edge endpoint: sampling uniformly from it
    // is sampling proportional to degree.
    let mut targets: Vec<NodeId> = Vec::with_capacity((n as f64 * m * 2.0) as usize);
    // Seed clique on the first m0 nodes.
    for i in 0..m0 as NodeId {
        for j in (i + 1)..m0 as NodeId {
            b.add_edge_unit(i, j);
            targets.push(i);
            targets.push(j);
        }
    }
    let frac = m.fract();
    for v in m0..n {
        let mi = if rng.gen_bool(frac.clamp(0.0, 1.0)) {
            m.ceil() as usize
        } else {
            m.floor() as usize
        };
        let mi = mi.min(v);
        let mut chosen: Vec<NodeId> = Vec::with_capacity(mi);
        let mut guard = 0;
        while chosen.len() < mi && guard < 50 * mi {
            guard += 1;
            let t = targets[rng.gen_range(0..targets.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            b.add_edge_unit(v as NodeId, t);
            targets.push(v as NodeId);
            targets.push(t);
        }
    }
    b.build()
}

/// Holme–Kim "powerlaw cluster" model: BA attachment where each subsequent
/// link closes a triangle with probability `p_triad`. Power-law degrees
/// *and* high clustering — the signature of collaboration/social networks
/// (HepPh, Facebook, Friendster).
pub fn holme_kim(n: usize, m: f64, p_triad: f64, rng: &mut impl Rng) -> Graph {
    assert!(m >= 1.0);
    assert!((0.0..=1.0).contains(&p_triad));
    let m0 = (m.ceil() as usize + 1).min(n);
    let mut b = GraphBuilder::new_undirected(n);
    let mut targets: Vec<NodeId> = Vec::new();
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let connect = |b: &mut GraphBuilder,
                   targets: &mut Vec<NodeId>,
                   adj: &mut Vec<Vec<NodeId>>,
                   u: NodeId,
                   v: NodeId| {
        b.add_edge_unit(u, v);
        targets.push(u);
        targets.push(v);
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    };
    for i in 0..m0 as NodeId {
        for j in (i + 1)..m0 as NodeId {
            connect(&mut b, &mut targets, &mut adj, i, j);
        }
    }
    let frac = m.fract();
    for v in m0..n {
        let mi = if rng.gen_bool(frac.clamp(0.0, 1.0)) {
            m.ceil() as usize
        } else {
            m.floor() as usize
        }
        .min(v);
        let mut chosen: Vec<NodeId> = Vec::with_capacity(mi);
        let mut last: Option<NodeId> = None;
        let mut guard = 0;
        while chosen.len() < mi && guard < 50 * mi.max(1) {
            guard += 1;
            // Triad step: link a random neighbour of the previous target.
            let cand = if let Some(prev) = last.filter(|_| rng.gen_bool(p_triad)) {
                let nb = &adj[prev as usize];
                if nb.is_empty() {
                    targets[rng.gen_range(0..targets.len())]
                } else {
                    nb[rng.gen_range(0..nb.len())]
                }
            } else {
                targets[rng.gen_range(0..targets.len())]
            };
            if cand as usize != v && !chosen.contains(&cand) {
                chosen.push(cand);
                last = Some(cand);
            }
        }
        for &t in &chosen {
            connect(&mut b, &mut targets, &mut adj, v as NodeId, t);
        }
    }
    b.build()
}

/// Directed preferential attachment (Bollobás-style, simplified): each new
/// node emits a *lognormally distributed* number of arcs (mean `m_out`,
/// dispersion σ = 1.2 — real trust and email networks have a heavy tail of
/// very active raters/senders, e.g. Bitcoin-OTC's most active rater issued
/// hundreds of ratings) whose targets are chosen proportional to
/// (in-degree + 1), giving power-law in-degrees as well.
pub fn directed_preferential(n: usize, m_out: f64, rng: &mut impl Rng) -> Graph {
    assert!(m_out >= 1.0);
    let m0 = (m_out.ceil() as usize + 1).min(n);
    let mut b = GraphBuilder::new_directed(n);
    let mut targets: Vec<NodeId> = (0..m0 as NodeId).collect(); // +1 smoothing
    for i in 0..m0 as NodeId {
        let j = (i + 1) % m0 as NodeId;
        if i != j {
            b.add_edge_unit(i, j);
            targets.push(j);
        }
    }
    // lognormal out-degree: exp(N(μ, σ²)) with σ = 1.2 and μ chosen so the
    // mean equals m_out; capped to keep pathological draws bounded.
    let sigma_ln = 1.2f64;
    let mu_ln = m_out.ln() - 0.5 * sigma_ln * sigma_ln;
    let cap = ((m_out * 60.0) as usize).max(4);
    let normal =
        |rng: &mut dyn privim_rt::RngCore| -> f64 { privim_rt::dist::standard_normal(rng) };
    for v in m0..n {
        let draw = (mu_ln + sigma_ln * normal(rng)).exp();
        let mi = (draw.round() as usize).clamp(1, cap).min(v);
        let mut chosen: Vec<NodeId> = Vec::with_capacity(mi);
        let mut guard = 0;
        while chosen.len() < mi && guard < 50 * mi.max(1) {
            guard += 1;
            let t = targets[rng.gen_range(0..targets.len())];
            if t as usize != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        targets.push(v as NodeId); // smoothing entry for the new node
        for &t in &chosen {
            b.add_edge_unit(v as NodeId, t);
            targets.push(t);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use privim_rt::ChaCha8Rng;
    use privim_rt::SeedableRng;

    #[test]
    fn er_has_exact_edge_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = erdos_renyi(100, 500, false, &mut rng);
        assert_eq!(g.num_edges(), 500);
        let d = erdos_renyi(100, 500, true, &mut rng);
        assert_eq!(d.num_edges(), 500);
        assert!(d.is_directed());
    }

    #[test]
    fn ba_mean_degree_matches_m() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = barabasi_albert(2000, 5, &mut rng);
        let stats = algo::degree_stats(&g);
        // mean total degree ~ 2m
        assert!(
            (stats.mean_total - 10.0).abs() < 1.0,
            "mean degree {}",
            stats.mean_total
        );
    }

    #[test]
    fn ba_fractional_interpolates() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = barabasi_albert_fractional(3000, 3.66, &mut rng);
        let mean = algo::degree_stats(&g).mean_total;
        assert!((mean - 7.32).abs() < 0.7, "mean degree {mean}");
    }

    #[test]
    fn ba_degrees_are_heavy_tailed() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = barabasi_albert(3000, 4, &mut rng);
        let stats = algo::degree_stats(&g);
        // hubs should far exceed the mean
        assert!(stats.max_out as f64 > 5.0 * stats.mean_total);
    }

    #[test]
    fn holme_kim_clusters_more_than_ba() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let ba = barabasi_albert(1500, 5, &mut rng);
        let hk = holme_kim(1500, 5.0, 0.8, &mut rng);
        let c_ba = algo::avg_clustering_sampled(&ba, 300, &mut rng);
        let c_hk = algo::avg_clustering_sampled(&hk, 300, &mut rng);
        assert!(
            c_hk > 1.5 * c_ba,
            "holme-kim clustering {c_hk} vs BA {c_ba}"
        );
    }

    #[test]
    fn directed_preferential_mean_out_degree() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = directed_preferential(3000, 6.0, &mut rng);
        let mean_out = g.num_arcs() as f64 / g.num_nodes() as f64;
        assert!((mean_out - 6.0).abs() < 0.7, "mean out-degree {mean_out}");
        assert!(g.is_directed());
        // in-degree should be heavy tailed
        let stats = algo::degree_stats(&g);
        assert!(stats.max_in > 50, "max in-degree {}", stats.max_in);
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let g1 = barabasi_albert(500, 3, &mut ChaCha8Rng::seed_from_u64(42));
        let g2 = barabasi_albert(500, 3, &mut ChaCha8Rng::seed_from_u64(42));
        assert_eq!(g1.num_arcs(), g2.num_arcs());
        assert!(g1.arcs().eq(g2.arcs()));
    }
}
