//! Stochastic diffusion models: Independent Cascade (Definition 6), and
//! the Linear Threshold and SIS models listed as future work (§VII).

use privim_graph::{Graph, NodeId};
use privim_rt::ChaCha8Rng;
use privim_rt::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::convert::Infallible;

/// Reusable buffers for repeated IC realisations on the same graph. The
/// Monte-Carlo estimators allocate one per worker chunk instead of one per
/// run — the dominant cost of a short cascade on a large graph is otherwise
/// the `vec![false; n]` zeroing round-trip.
#[derive(Default)]
struct IcScratch {
    active: Vec<bool>,
    frontier: VecDeque<(NodeId, usize)>,
}

/// One IC cascade from `seeds`, asking `fires(w_uv)` whether each examined
/// arc `u → v` (one whose target `v` is still inactive) activates `v`. An
/// `Err` from `fires` stops the cascade and is returned as is.
fn ic_cascade<E>(
    g: &Graph,
    seeds: &[NodeId],
    max_steps: Option<usize>,
    s: &mut IcScratch,
    mut fires: impl FnMut(f64) -> Result<bool, E>,
) -> Result<usize, E> {
    s.active.clear();
    s.active.resize(g.num_nodes(), false);
    s.frontier.clear();
    let active = &mut s.active;
    let frontier = &mut s.frontier;
    let mut count = 0usize;
    for &sd in seeds {
        if !active[sd as usize] {
            active[sd as usize] = true;
            count += 1;
            frontier.push_back((sd, 0));
        }
    }
    while let Some((u, step)) = frontier.pop_front() {
        if let Some(limit) = max_steps {
            if step >= limit {
                continue;
            }
        }
        let ws = g.out_weights(u);
        for (i, &v) in g.out_neighbors(u).iter().enumerate() {
            if !active[v as usize] && fires(ws[i])? {
                active[v as usize] = true;
                count += 1;
                frontier.push_back((v, step + 1));
            }
        }
    }
    Ok(count)
}

fn ic_simulate_scratch(
    g: &Graph,
    seeds: &[NodeId],
    max_steps: Option<usize>,
    rng: &mut impl Rng,
    s: &mut IcScratch,
) -> usize {
    match ic_cascade(g, seeds, max_steps, s, |w| {
        Ok::<_, Infallible>(rng.gen::<f64>() < w)
    }) {
        Ok(count) => count,
        Err(never) => match never {},
    }
}

/// The cascade every IC realisation runs when each arc it examines has a
/// weight outside `(0, 1)`: such an arc fires for every draw `r ∈ [0, 1)`
/// (`r < w` with `w ≥ 1`) or for none (`w ≤ 0`, or NaN). `None` at the
/// first examined arc with `0 < w < 1`, whose outcome depends on the draw.
fn ic_cascade_without_draws(
    g: &Graph,
    seeds: &[NodeId],
    max_steps: Option<usize>,
) -> Option<usize> {
    ic_cascade(g, seeds, max_steps, &mut IcScratch::default(), |w| {
        if w >= 1.0 {
            Ok(true)
        } else if w > 0.0 {
            Err(())
        } else {
            Ok(false)
        }
    })
    .ok()
}

/// One IC realisation from `seeds`, run until quiescence or for at most
/// `max_steps` rounds (`None` = unbounded). Returns the number of activated
/// nodes. Each newly activated `u` gets a single chance to activate each
/// inactive out-neighbour `v` with probability `w_uv`.
pub fn ic_simulate_once(
    g: &Graph,
    seeds: &[NodeId],
    max_steps: Option<usize>,
    rng: &mut impl Rng,
) -> usize {
    ic_simulate_scratch(g, seeds, max_steps, rng, &mut IcScratch::default())
}

/// Monte-Carlo estimate of IC influence spread: mean activated count over
/// `runs` independent realisations (thread-parallel, deterministic given
/// `seed` at any thread count).
///
/// Runs are summed chunk-wise with per-chunk scratch buffers; each run is
/// seeded by its global index and the counts are integers, so the total is
/// independent of how runs are split across workers.
///
/// When every arc the cascade examines has weight 0 or 1 (the paper's
/// `w = 1` setting, with or without zero-weight arcs), every realisation
/// makes the same decisions, so the value is exact and costs one cascade
/// without random draws, whatever `runs` is. It is bit-identical to the
/// Monte-Carlo mean (`count · runs / runs`, exact below 2^53). The first
/// examined arc with `0 < w < 1` sends the call to the Monte-Carlo loop.
pub fn ic_spread_estimate(
    g: &Graph,
    seeds: &[NodeId],
    max_steps: Option<usize>,
    runs: usize,
    seed: u64,
) -> f64 {
    assert!(runs >= 1);
    if let Some(count) = ic_cascade_without_draws(g, seeds, max_steps) {
        return count as f64;
    }
    let total: usize = privim_rt::par::sum_chunks(runs, |range| {
        let mut scratch = IcScratch::default();
        range
            .map(|i| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(i as u64));
                ic_simulate_scratch(g, seeds, max_steps, &mut rng, &mut scratch)
            })
            .sum::<usize>()
    });
    total as f64 / runs as f64
}

/// One Linear Threshold realisation: node `u` activates once
/// `Σ_{active v ∈ N⁻(u)} w_vu ≥ θ_u` with `θ_u ~ U(0, 1)`. Arc weights
/// should sum to ≤ 1 per node (use
/// [`privim_graph::Graph::with_weighted_cascade`]).
pub fn lt_simulate_once(g: &Graph, seeds: &[NodeId], rng: &mut impl Rng) -> usize {
    lt_simulate_scratch(g, seeds, rng, &mut LtScratch::default())
}

/// Reusable buffers for repeated LT realisations (see [`IcScratch`]).
#[derive(Default)]
struct LtScratch {
    thresholds: Vec<f64>,
    active: Vec<bool>,
    pressure: Vec<f64>,
    queue: VecDeque<NodeId>,
}

fn lt_simulate_scratch(g: &Graph, seeds: &[NodeId], rng: &mut impl Rng, s: &mut LtScratch) -> usize {
    let n = g.num_nodes();
    s.thresholds.clear();
    s.thresholds.extend((0..n).map(|_| rng.gen::<f64>()));
    s.active.clear();
    s.active.resize(n, false);
    s.pressure.clear();
    s.pressure.resize(n, 0.0);
    s.queue.clear();
    let LtScratch {
        thresholds,
        active,
        pressure,
        queue,
    } = s;
    let mut count = 0usize;
    for &sd in seeds {
        if !active[sd as usize] {
            active[sd as usize] = true;
            count += 1;
            queue.push_back(sd);
        }
    }
    while let Some(u) = queue.pop_front() {
        let ws = g.out_weights(u);
        for (i, &v) in g.out_neighbors(u).iter().enumerate() {
            if active[v as usize] {
                continue;
            }
            pressure[v as usize] += ws[i];
            if pressure[v as usize] >= thresholds[v as usize] {
                active[v as usize] = true;
                count += 1;
                queue.push_back(v);
            }
        }
    }
    count
}

/// Monte-Carlo LT spread estimate (chunk-wise scratch reuse, thread-count
/// independent — see [`ic_spread_estimate`]).
pub fn lt_spread_estimate(g: &Graph, seeds: &[NodeId], runs: usize, seed: u64) -> f64 {
    assert!(runs >= 1);
    let total: usize = privim_rt::par::sum_chunks(runs, |range| {
        let mut scratch = LtScratch::default();
        range
            .map(|i| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(i as u64));
                lt_simulate_scratch(g, seeds, &mut rng, &mut scratch)
            })
            .sum::<usize>()
    });
    total as f64 / runs as f64
}

/// One SIS (susceptible-infectious-susceptible) realisation for `steps`
/// rounds: infected nodes infect each susceptible out-neighbour with the
/// arc weight as infection probability, then recover (become susceptible
/// again) with probability `recovery`. Returns the number of *distinct*
/// nodes ever infected — the quantity comparable to IC's spread.
pub fn sis_simulate_once(
    g: &Graph,
    seeds: &[NodeId],
    recovery: f64,
    steps: usize,
    rng: &mut impl Rng,
) -> usize {
    sis_simulate_scratch(g, seeds, recovery, steps, rng, &mut SisScratch::default())
}

/// Reusable buffers for repeated SIS realisations (see [`IcScratch`]).
#[derive(Default)]
struct SisScratch {
    infected: Vec<bool>,
    ever: Vec<bool>,
    current: Vec<NodeId>,
    newly: Vec<NodeId>,
}

fn sis_simulate_scratch(
    g: &Graph,
    seeds: &[NodeId],
    recovery: f64,
    steps: usize,
    rng: &mut impl Rng,
    s: &mut SisScratch,
) -> usize {
    assert!((0.0..=1.0).contains(&recovery));
    let n = g.num_nodes();
    s.infected.clear();
    s.infected.resize(n, false);
    s.ever.clear();
    s.ever.resize(n, false);
    s.current.clear();
    s.newly.clear();
    let SisScratch {
        infected,
        ever,
        current,
        newly,
    } = s;
    let mut ever_count = 0usize;
    for &sd in seeds {
        if !infected[sd as usize] {
            infected[sd as usize] = true;
            ever[sd as usize] = true;
            ever_count += 1;
            current.push(sd);
        }
    }
    for _ in 0..steps {
        if current.is_empty() {
            break;
        }
        newly.clear();
        for &u in current.iter() {
            let ws = g.out_weights(u);
            for (i, &v) in g.out_neighbors(u).iter().enumerate() {
                if !infected[v as usize] && rng.gen::<f64>() < ws[i] {
                    infected[v as usize] = true;
                    if !ever[v as usize] {
                        ever[v as usize] = true;
                        ever_count += 1;
                    }
                    newly.push(v);
                }
            }
        }
        // recovery sweep
        current.retain(|&u| {
            if rng.gen::<f64>() < recovery {
                infected[u as usize] = false;
                false
            } else {
                true
            }
        });
        current.append(newly);
    }
    ever_count
}

/// Monte-Carlo SIS spread estimate (chunk-wise scratch reuse, thread-count
/// independent — see [`ic_spread_estimate`]).
pub fn sis_spread_estimate(
    g: &Graph,
    seeds: &[NodeId],
    recovery: f64,
    steps: usize,
    runs: usize,
    seed: u64,
) -> f64 {
    assert!(runs >= 1);
    let total: usize = privim_rt::par::sum_chunks(runs, |range| {
        let mut scratch = SisScratch::default();
        range
            .map(|i| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(i as u64));
                sis_simulate_scratch(g, seeds, recovery, steps, &mut rng, &mut scratch)
            })
            .sum::<usize>()
    });
    total as f64 / runs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread::{expected_one_step_spread, one_step_spread};
    use privim_graph::{generators, GraphBuilder};

    fn chain(weights: f64) -> Graph {
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 1, weights);
        b.add_edge(1, 2, weights);
        b.add_edge(2, 3, weights);
        b.build()
    }

    #[test]
    fn unit_weights_activate_everything_reachable() {
        let g = chain(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(ic_simulate_once(&g, &[0], None, &mut rng), 4);
        assert_eq!(ic_simulate_once(&g, &[2], None, &mut rng), 2);
    }

    #[test]
    fn max_steps_truncates_diffusion() {
        let g = chain(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(ic_simulate_once(&g, &[0], Some(1), &mut rng), 2);
        assert_eq!(ic_simulate_once(&g, &[0], Some(2), &mut rng), 3);
        assert_eq!(ic_simulate_once(&g, &[0], Some(0), &mut rng), 1);
    }

    #[test]
    fn zero_weights_spread_nowhere() {
        let g = chain(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(ic_simulate_once(&g, &[0], None, &mut rng), 1);
    }

    #[test]
    fn monte_carlo_matches_exact_one_step() {
        // On a one-step truncated IC, the MC mean must approach the exact
        // closed-form expectation.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::barabasi_albert(60, 3, &mut rng).with_weighted_cascade();
        let seeds: Vec<NodeId> = vec![0, 5, 10];
        let exact = expected_one_step_spread(&g, &seeds);
        let mc = ic_spread_estimate(&g, &seeds, Some(1), 4000, 99);
        assert!(
            (mc - exact).abs() / exact < 0.05,
            "MC {mc} vs exact {exact}"
        );
    }

    #[test]
    fn deterministic_setting_has_zero_variance() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::barabasi_albert(100, 3, &mut rng).with_uniform_weights(1.0);
        let seeds = vec![1u32, 2, 3];
        let est = ic_spread_estimate(&g, &seeds, Some(1), 10, 7);
        assert_eq!(est, one_step_spread(&g, &seeds) as f64);
    }

    /// The Monte-Carlo mean written out: run `i` on
    /// `ChaCha8Rng::seed_from_u64(seed + i)`, counts summed, then divided.
    fn monte_carlo_loop(
        g: &Graph,
        seeds: &[NodeId],
        max_steps: Option<usize>,
        runs: usize,
        seed: u64,
    ) -> f64 {
        let total: usize = (0..runs)
            .map(|i| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(i as u64));
                ic_simulate_once(g, seeds, max_steps, &mut rng)
            })
            .sum();
        total as f64 / runs as f64
    }

    /// A seeded random graph on `n` nodes whose arc weights are all 0 or 1
    /// and whose last quarter of nodes is isolated.
    fn zero_one_graph(n: usize, directed: bool, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = if directed {
            GraphBuilder::new_directed(n)
        } else {
            GraphBuilder::new_undirected(n)
        };
        let wired = (n - n / 4) as u32;
        for _ in 0..3 * n {
            let u = rng.gen_range(0..wired);
            let v = rng.gen_range(0..wired);
            let w = if rng.gen_bool(0.7) { 1.0 } else { 0.0 };
            b.add_edge(u, v, w);
        }
        b.build()
    }

    #[test]
    fn zero_one_weights_give_the_monte_carlo_bits_from_one_cascade() {
        let steps = [None, Some(0), Some(1), Some(2), Some(5)];
        for (k, &(n, directed)) in [
            (1, true),
            (2, false),
            (9, true),
            (40, false),
            (40, true),
            (150, false),
            (150, true),
        ]
        .iter()
        .enumerate()
        {
            let g = zero_one_graph(n, directed, 100 + k as u64);
            let last = (n - 1) as NodeId;
            let seed_lists: [Vec<NodeId>; 4] = [
                vec![],
                vec![0, 0, last, 0],
                vec![last],
                (0..n as NodeId).step_by(7).collect(),
            ];
            for seeds in &seed_lists {
                for &max_steps in &steps {
                    assert!(ic_cascade_without_draws(&g, seeds, max_steps).is_some());
                    for runs in [1, 16, 1000] {
                        let seed = 31 * k as u64 + runs as u64;
                        let fast = ic_spread_estimate(&g, seeds, max_steps, runs, seed);
                        let slow = monte_carlo_loop(&g, seeds, max_steps, runs, seed);
                        assert_eq!(
                            fast.to_bits(),
                            slow.to_bits(),
                            "n={n} directed={directed} seeds={seeds:?} max_steps={max_steps:?} runs={runs}: {fast} vs {slow}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_fractional_arc_first_reached_at_step_two_gives_the_monte_carlo_bits() {
        // 0 → 1 → 2 ⇢ 3 → 4 with unit arcs except 2 ⇢ 3 (w = 0.5), which
        // the cascade from 0 examines while expanding the step-2 node.
        let mut b = GraphBuilder::new_directed(6);
        for (u, v, w) in [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 0.5),
            (3, 4, 1.0),
            (0, 5, 1.0),
        ] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        assert_eq!(ic_cascade_without_draws(&g, &[0], Some(2)), Some(4));
        for max_steps in [None, Some(3), Some(5)] {
            assert_eq!(ic_cascade_without_draws(&g, &[0], max_steps), None);
            for runs in [1, 16, 1000] {
                let est = ic_spread_estimate(&g, &[0], max_steps, runs, 17);
                let mc = monte_carlo_loop(&g, &[0], max_steps, runs, 17);
                assert_eq!(
                    est.to_bits(),
                    mc.to_bits(),
                    "max_steps={max_steps:?} runs={runs}"
                );
            }
            // Both outcomes of the coin show up: this is the sampled mean.
            let est = ic_spread_estimate(&g, &[0], max_steps, 1000, 17);
            assert!(
                est > 4.0 && est < 4.0 + if max_steps == Some(3) { 1.0 } else { 2.0 },
                "{est}"
            );
        }
    }

    #[test]
    fn lt_unit_weights_cascade_fully() {
        // With w = 1 every neighbour of an active node crosses any θ ≤ 1.
        let g = chain(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        assert_eq!(lt_simulate_once(&g, &[0], &mut rng), 4);
    }

    #[test]
    fn lt_spread_monotone_in_seed_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = generators::barabasi_albert(80, 3, &mut rng).with_weighted_cascade();
        let one = lt_spread_estimate(&g, &[0], 500, 11);
        let three = lt_spread_estimate(&g, &[0, 1, 2], 500, 11);
        assert!(
            three > one,
            "LT spread should grow with seeds: {three} vs {one}"
        );
    }

    #[test]
    fn sis_with_instant_recovery_matches_truncated_ic_shape() {
        let g = chain(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        // recovery 1.0: every node recovers right after one infection round,
        // but the wave still propagates one hop per step.
        let spread = sis_simulate_once(&g, &[0], 1.0, 3, &mut rng);
        assert_eq!(spread, 4);
        let spread_short = sis_simulate_once(&g, &[0], 1.0, 1, &mut rng);
        assert_eq!(spread_short, 2);
    }

    #[test]
    fn sis_zero_steps_counts_seeds_only() {
        let g = chain(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(sis_simulate_once(&g, &[0, 2], 0.5, 0, &mut rng), 2);
    }

    #[test]
    fn estimates_are_deterministic_given_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generators::barabasi_albert(60, 3, &mut rng).with_weighted_cascade();
        let a = ic_spread_estimate(&g, &[0, 1], None, 200, 42);
        let b = ic_spread_estimate(&g, &[0, 1], None, 200, 42);
        assert_eq!(a, b);
    }
}
