//! The four workloads. Names are fixed; later issues cite them.

pub mod ingest_durable;
mod query;
pub mod query_churn;
pub mod query_dashboard;
pub mod sim_mesh;

use crate::report::RunResult;
use crate::Ctx;

pub fn run(name: &str, ctx: &mut Ctx) -> Option<RunResult> {
    Some(match name {
        "sim_mesh" => sim_mesh::run(ctx),
        "ingest_durable" => ingest_durable::run(ctx),
        "query_dashboard" => query_dashboard::run(ctx),
        "query_churn" => query_churn::run(ctx),
        _ => return None,
    })
}
