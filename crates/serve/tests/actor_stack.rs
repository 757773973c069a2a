//! Regression: a large tenant's first refresh must not overflow its actor
//! thread's stack. The refresh solves the tenant's shards on the rayon
//! pool, and while the actor waits for them the pool's caller-helps loop
//! runs other queued shard jobs on the actor's own stack. At
//! `federated(3584)` that needs more than a default 2 MiB thread stack;
//! an overflow aborts the whole process, and with it every tenant.
//!
//! It lives in its own test binary because the failure mode is an abort,
//! which would take every other test in the same binary down with it.

use dagwave_core::{DecomposePolicy, SolverBuilder, Workspace};
use dagwave_gen::compose::federated;
use dagwave_serve::actor::spawn_tenant;
use dagwave_serve::ActorConfig;

#[test]
fn first_query_on_a_large_tenant_fits_the_actor_stack() {
    let inst = federated(3584);
    let paths = inst.family.len();
    let session = SolverBuilder::new()
        .decompose(DecomposePolicy::Always)
        .build();
    let ws = Workspace::new(session, inst.graph, inst.family).expect("federated DAG is valid");
    let (tenant, join) = spawn_tenant(ws, ActorConfig::default());
    let delta = tenant.query_delta(0).expect("first refresh completes");
    assert_eq!(delta.changes.len(), paths, "every dipath gets a color");
    tenant.stop();
    join.join().expect("actor exits cleanly");
}
