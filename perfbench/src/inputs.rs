//! The testbed and every input generated from the workload seed: the
//! query mix, open-loop arrival schedules and the WAL tail. The
//! program under test only ever sees these generated inputs.

use std::time::Duration;

use atd_core::{Project, SkillIndex, Strategy};
use atd_dblp::graph_build::{BuildConfig, ExpertNetwork};
use atd_dblp::synth::{SynthConfig, SynthCorpus};
use atd_eval::workload::{generate_projects, WorkloadConfig};
use atd_graph::{ExpertGraph, GraphDelta, NodeId};

use crate::util::Rng;

/// γ and λ of the authority-aware strategies (the paper's 0.6).
pub const GAMMA: f64 = 0.6;
pub const LAMBDA: f64 = 0.6;
/// Teams requested per query.
pub const TOP_K: usize = 3;
/// Project sizes of the query mix, in equal shares.
pub const SIZES: [usize; 3] = [2, 4, 6];
/// Projects generated per size. The pools are the same for every seed.
const POOL: usize = 200;

pub const STRATEGIES: [Strategy; 3] = [
    Strategy::Cc,
    Strategy::CaCc { gamma: GAMMA },
    Strategy::SaCaCc {
        gamma: GAMMA,
        lambda: LAMBDA,
    },
];

/// Short strategy label used in metric names.
pub fn strategy_label(s: Strategy) -> &'static str {
    match s {
        Strategy::Cc => "cc",
        Strategy::CaCc { .. } => "ca_cc",
        Strategy::SaCaCc { .. } => "sa_ca_cc",
    }
}

/// The synthetic-DBLP testbed. The corpus seed is fixed, so every
/// workload seed runs against the same network (3000 authors give 2270
/// nodes); the workload seed only drives the generated load.
pub struct Testbed {
    pub authors: usize,
    pub graph: ExpertGraph,
    pub skills: SkillIndex,
}

impl Testbed {
    pub fn new(authors: usize) -> Testbed {
        let synth = SynthCorpus::generate(&SynthConfig {
            num_authors: authors,
            seed: 3,
            ..SynthConfig::default()
        });
        let net = ExpertNetwork::build(synth.corpus, &BuildConfig::default())
            .expect("synthetic corpus builds");
        Testbed {
            authors,
            graph: net.graph,
            skills: net.skills,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Query {
    pub project: Project,
    pub strategy: Strategy,
}

/// Projects from `generate_projects`, one pool per size sorted by total
/// holder count, plus the fixed project of the first-answer query and
/// the γ probe.
pub struct QueryMix {
    by_cost: Vec<Vec<Project>>,
    fixed: Project,
}

impl QueryMix {
    pub fn new(skills: &SkillIndex) -> QueryMix {
        let by_cost = SIZES
            .iter()
            .map(|&t| {
                let mut pool = generate_projects(
                    skills,
                    &WorkloadConfig {
                        num_skills: t,
                        count: POOL,
                        min_holders: 2,
                        max_holders: 60,
                        seed: t as u64,
                    },
                );
                pool.sort_by_key(|p| {
                    let holders: usize = p.skills().iter().map(|&s| skills.holders(s).len()).sum();
                    (holders, p.skills().to_vec())
                });
                pool
            })
            .collect();
        let fixed = generate_projects(
            skills,
            &WorkloadConfig {
                num_skills: 4,
                count: 1,
                min_holders: 2,
                max_holders: 60,
                seed: 0,
            },
        )
        .remove(0);
        QueryMix { by_cost, fixed }
    }

    /// `n` queries: every block of nine holds each (size, strategy) cell
    /// once, in a seeded order, so shares are equal to within one block.
    /// Within a cell the projects are spread evenly over the pool ordered
    /// by total holder count, which the root scan's cost grows with: the
    /// middle project of each of `n / 9` equal slices. The projects are
    /// thus the same for every seed, so every seed measures the same
    /// work; the seed only sets their order.
    pub fn sequence(&self, rng: &mut Rng, n: usize) -> Vec<Query> {
        let cells: Vec<(usize, usize)> = (0..SIZES.len())
            .flat_map(|s| (0..STRATEGIES.len()).map(move |g| (s, g)))
            .collect();
        let per_cell = n.div_ceil(cells.len());
        let mut picks: Vec<std::vec::IntoIter<&Project>> = cells
            .iter()
            .map(|&(s, _)| {
                let pool = &self.by_cost[s];
                let mut p: Vec<&Project> = (0..per_cell)
                    .map(|k| {
                        let lo = k * pool.len() / per_cell;
                        let hi = ((k + 1) * pool.len() / per_cell).max(lo + 1);
                        &pool[lo + (hi - lo) / 2]
                    })
                    .collect();
                rng.shuffle(&mut p);
                p.into_iter()
            })
            .collect();
        let mut order: Vec<usize> = (0..cells.len()).collect();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            rng.shuffle(&mut order);
            for &c in &order {
                if out.len() < n {
                    out.push(Query {
                        project: picks[c].next().expect("a pick per block").clone(),
                        strategy: STRATEGIES[cells[c].1],
                    });
                }
            }
        }
        out
    }

    /// The fixed first-answer query: a 4-skill CC query, the same for
    /// every seed.
    pub fn first_answer(&self) -> Query {
        Query {
            project: self.fixed.clone(),
            strategy: Strategy::Cc,
        }
    }

    /// The fixed γ probe used to time mutation visibility.
    pub fn gamma_probe(&self) -> Query {
        Query {
            project: self.fixed.clone(),
            strategy: Strategy::CaCc { gamma: GAMMA },
        }
    }
}

/// Due times of `n` Poisson arrivals at `rate` per second, the same for
/// every seed. Each query's root scan runs on every CPU, so how often two
/// queries overlap moves the latency median; with seeded arrival times
/// that median differed from seed to seed more than with fixed ones.
pub fn poisson_schedule(rate: f64, n: usize) -> Vec<Duration> {
    let mut rng = Rng::new(0x0a11_0ca7);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exp_gap(rate);
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Edges a relaxation may pick: positive and strictly below the maximum
/// weight, so the normalization scale survives.
fn relaxable(graph: &ExpertGraph) -> Vec<(NodeId, NodeId, f64)> {
    let w_max = graph.max_edge_weight().unwrap_or(0.0);
    graph
        .edges()
        .filter(|&(_, _, w)| w > 0.0 && w < w_max)
        .collect()
}

/// A reinforced collaboration costs this share of its previous cost.
const RELAX_FACTOR: f64 = 0.7;

/// A WAL tail of `n` relaxations between ordinary authors: edges come
/// from the quarter with the smallest endpoint-degree sum, the
/// collaborations whose reinforcement the incremental path is built for.
/// The edges are fixed — the middle edge of each of `n` equal slices of
/// that quarter — so every seed publishes the same work; the seed only
/// sets their order.
pub fn relax_tail(graph: &ExpertGraph, rng: &mut Rng, n: usize) -> Vec<GraphDelta> {
    let mut edges = relaxable(graph);
    edges.sort_by_key(|&(u, v, _)| (graph.degree(u) + graph.degree(v), u, v));
    edges.truncate((edges.len() / 4).max(n));
    let slice = edges.len() / n;
    let mut picks: Vec<usize> = (0..n).map(|i| i * slice + slice / 2).collect();
    rng.shuffle(&mut picks);
    let mut g = graph.clone();
    picks
        .into_iter()
        .map(|i| {
            let (u, v, _) = edges[i];
            let w = g.edge_weight(u, v).expect("edge exists");
            let mut d = GraphDelta::new();
            d.reinforce_edge(u, v, w * RELAX_FACTOR);
            g = g.apply_delta(&d).expect("relaxation applies");
            d
        })
        .collect()
}
