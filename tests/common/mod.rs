//! Campaign helpers shared by the integration tests.

use koika::device::{Device, SimBackend};
use koika::fault::{draw_schedule, CampaignConfig, CampaignReport, FaultEngine, MemberReport};
use koika::tir::TDesign;

/// Thread-safe simulator and device factories, as the worker-pool runners
/// take them but infallible.
pub type MakeSim<'a> = &'a (dyn Fn() -> Box<dyn SimBackend> + Sync);
pub type MakeDevices<'a> = &'a (dyn Fn() -> Vec<Box<dyn Device>> + Sync);

/// The report of `cfg` on the replay path, an independent reference for
/// the campaign runners: a golden run without checkpoints, and every
/// member drawn by `draw_schedule` and classified on its own, from reset,
/// by `FaultEngine::classify_injections`.
pub fn classified_one_by_one(
    td: &TDesign,
    make_sim: MakeSim<'_>,
    make_devices: MakeDevices<'_>,
    cfg: &CampaignConfig,
) -> CampaignReport {
    let mut engine = FaultEngine {
        td,
        make_sim: &mut || make_sim(),
        make_devices: &mut || make_devices(),
    };
    let golden = engine.golden(cfg.cycles, cfg.stall_cycles).unwrap();
    let members = (0..cfg.members)
        .map(|index| {
            let injections = draw_schedule(td, cfg, index);
            let outcome =
                engine.classify_injections(&injections, cfg.cycles, cfg.stall_cycles, &golden);
            MemberReport {
                index,
                injections,
                outcome,
                detail: None,
            }
        })
        .collect();
    CampaignReport {
        design: td.name.clone(),
        reg_names: td.regs.iter().map(|r| r.name.clone()).collect(),
        config: cfg.clone(),
        golden_digest: golden.digest(),
        members,
    }
}
