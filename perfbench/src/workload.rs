//! The three served workloads: their seeded inputs and what each
//! connection sends next.

use std::collections::VecDeque;
use std::sync::Arc;

use dagwave_core::{DecomposePolicy, SolveSession, SolverBuilder};
use dagwave_gen::compose::federated;
use dagwave_gen::{random, Instance};
use dagwave_graph::{Digraph, VertexId};
use dagwave_paths::PathId;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Federated copies in `churn_many`. The first refresh of a larger
/// tenant can overflow its actor thread's 2 MiB stack (always at 3584
/// copies, now and then at 2048; see README), so this stays at 1024.
pub const CHURN_COPIES: usize = 1024;
/// Copies of its own donors one `churn_many` writer keeps live.
pub const CHURN_KEEP: usize = 2;
/// `snapshot_read` DAG order and family size, and the seed its instance
/// is drawn with: the `report` binary's T1 n=800 row, exactly.
pub const SNAPSHOT_VERTICES: usize = 800;
pub const SNAPSHOT_PATHS: usize = 8000;
const SNAPSHOT_INSTANCE_SEED: u64 = 800;
/// Longest random walk admitted in `snapshot_read`.
pub const SNAPSHOT_WALK: usize = 6;
/// Dipaths of `federated(8)` that `dup_hotspot` duplicates.
pub const HOTSPOT_DONORS: u32 = 8;
/// Copies of each donor `dup_hotspot` starts with and keeps between
/// steps: one past the 3 at which every refresh still takes at most
/// ~30 ms, so every admission lands past the exact-search cliff.
pub const HOTSPOT_KEEP: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ChurnMany,
    SnapshotRead,
    DupHotspot,
}

/// What one connection of a workload does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Loops: admit, delta-sync, retire when over its keep limit.
    Writer,
    /// Loops: full `Query` snapshot.
    Reader,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ChurnMany,
        Workload::SnapshotRead,
        Workload::DupHotspot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnMany => "churn_many",
            Workload::SnapshotRead => "snapshot_read",
            Workload::DupHotspot => "dup_hotspot",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The connections of the closed loop, one entry each.
    pub fn roles(self) -> &'static [Role] {
        match self {
            Workload::ChurnMany => &[Role::Writer, Role::Writer],
            Workload::SnapshotRead => &[Role::Writer, Role::Reader],
            Workload::DupHotspot => &[Role::Writer],
        }
    }

    /// The tenant's starting instance. Instances are fixed; the run's
    /// seed drives what the connections send.
    pub fn instance(self) -> Instance {
        match self {
            Workload::ChurnMany => federated(CHURN_COPIES),
            Workload::DupHotspot => {
                // The hotspot's steady state: `HOTSPOT_KEEP` copies of each
                // donor already live, appended as ids 40.. round by round.
                let mut inst = federated(HOTSPOT_DONORS as usize);
                let donors: Vec<_> = (0..HOTSPOT_DONORS)
                    .map(|i| inst.family.path(PathId(i)).clone())
                    .collect();
                for _ in 0..HOTSPOT_KEEP {
                    for p in &donors {
                        inst.family.push(p.clone());
                    }
                }
                inst.name = format!("federated-k{HOTSPOT_DONORS}-hotspot");
                inst
            }
            Workload::SnapshotRead => {
                let mut rng = ChaCha8Rng::seed_from_u64(SNAPSHOT_INSTANCE_SEED);
                let g = random::random_internal_cycle_free(
                    &mut rng,
                    SNAPSHOT_VERTICES,
                    SNAPSHOT_VERTICES / 4,
                );
                let family = random::random_family(&mut rng, &g, SNAPSHOT_PATHS, SNAPSHOT_WALK);
                Instance {
                    graph: g,
                    family,
                    name: format!("t1-n{SNAPSHOT_VERTICES}-p{SNAPSHOT_PATHS}"),
                }
            }
        }
    }
}

/// The tenant's session: the D4 configuration (every component its own
/// shard).
pub fn session() -> SolveSession {
    SolverBuilder::new()
        .decompose(DecomposePolicy::Always)
        .build()
}

/// Arc ids of a dipath, as the wire carries them.
pub type Arcs = Arc<[u32]>;

/// One writer's seeded op stream.
pub struct WriterPlan {
    workload: Workload,
    rng: ChaCha8Rng,
    /// Donor dipaths (`churn_many`: the whole family; `dup_hotspot`: the
    /// first eight in a seeded order).
    donors: Vec<Arcs>,
    graph: Arc<Digraph>,
    starts: Vec<VertexId>,
    step: usize,
    /// Live admissions of this writer, oldest first, tagged by donor.
    owned: VecDeque<(usize, u32)>,
}

impl WriterPlan {
    pub fn new(
        workload: Workload,
        inst: &Instance,
        graph: Arc<Digraph>,
        seed: u64,
        writer: usize,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(
            seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(writer as u64 + 1)),
        );
        let arcs_of = |i: u32| -> Arcs {
            inst.family
                .path(PathId(i))
                .arcs()
                .iter()
                .map(|a| a.0)
                .collect()
        };
        let mut owned = VecDeque::new();
        let donors: Vec<Arcs> = match workload {
            Workload::ChurnMany => (0..inst.family.len() as u32).map(arcs_of).collect(),
            Workload::DupHotspot => {
                let mut order: Vec<u32> = (0..HOTSPOT_DONORS).collect();
                order.shuffle(&mut rng);
                // The pre-admitted copies, oldest first, are this writer's.
                let base = inst.family.len() as u32 - HOTSPOT_DONORS * HOTSPOT_KEEP as u32;
                for copy in 0..HOTSPOT_DONORS * HOTSPOT_KEEP as u32 {
                    let dipath = copy % HOTSPOT_DONORS;
                    let donor = order.iter().position(|&d| d == dipath).unwrap_or(0);
                    owned.push_back((donor, base + copy));
                }
                order.into_iter().map(arcs_of).collect()
            }
            Workload::SnapshotRead => Vec::new(),
        };
        let starts = graph
            .vertices()
            .filter(|&v| graph.outdegree(v) > 0)
            .collect();
        WriterPlan {
            workload,
            rng,
            donors,
            graph,
            starts,
            step: 0,
            owned,
        }
    }

    /// The next dipath to admit, tagged by donor.
    pub fn next_admit(&mut self) -> (usize, Arcs) {
        self.step += 1;
        match self.workload {
            Workload::ChurnMany => {
                let d = self.rng.random_range(0..self.donors.len());
                (d, Arc::clone(&self.donors[d]))
            }
            Workload::DupHotspot => {
                let d = (self.step - 1) % self.donors.len();
                (d, Arc::clone(&self.donors[d]))
            }
            Workload::SnapshotRead => (0, self.random_walk()),
        }
    }

    pub fn admitted(&mut self, donor: usize, id: u32) {
        self.owned.push_back((donor, id));
    }

    /// The id to retire after the sync: `dup_hotspot` takes a donor back
    /// to `HOTSPOT_KEEP` copies, the others retire their oldest admission
    /// once they hold more than `CHURN_KEEP`.
    pub fn retire_after_sync(&mut self, donor: usize) -> Option<u32> {
        let pos = match self.workload {
            Workload::DupHotspot => {
                let copies = self.owned.iter().filter(|(d, _)| *d == donor).count();
                if copies <= HOTSPOT_KEEP {
                    return None;
                }
                self.owned.iter().position(|(d, _)| *d == donor)?
            }
            _ if self.owned.len() > CHURN_KEEP => 0,
            _ => return None,
        };
        self.owned.remove(pos).map(|(_, id)| id)
    }

    /// A random walk of 1..=SNAPSHOT_WALK arcs from a random vertex with
    /// out-arcs — the generator `random_family` uses.
    fn random_walk(&mut self) -> Arcs {
        loop {
            let Some(&start) = self.starts.choose(&mut self.rng) else {
                return Arc::from([]);
            };
            let len = self.rng.random_range(1..=SNAPSHOT_WALK);
            let mut arcs = Vec::with_capacity(len);
            let mut cur = start;
            for _ in 0..len {
                let Some(&a) = self.graph.out_arcs(cur).choose(&mut self.rng) else {
                    break;
                };
                arcs.push(a.0);
                cur = self.graph.head(a);
            }
            if !arcs.is_empty() {
                return arcs.into();
            }
        }
    }
}
