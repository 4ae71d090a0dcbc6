//! Workload materialization shared by the serving workloads: plan
//! templates of the paper's six workloads, each executed once through the
//! engine with its tapped event stream captured, and the deterministic
//! Zipf-skewed stream mix replayed from them.

use std::sync::mpsc::channel;
use std::sync::Arc;

use prosel_datagen::TuningLevel;
use prosel_engine::plan::PhysicalPlan;
use prosel_engine::trace::TraceEvent;
use prosel_engine::{run_plan_tapped, Catalog, ExecConfig};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;
use rand::rngs::StdRng;
use rand::RngExt;

use crate::spans::Tracer;

/// Zipf exponent of template popularity within a workload (the traffic
/// harness's default).
const ZIPF_EXPONENT: f64 = 1.1;

/// One captured plan and its event stream (query ids and wall stamps are
/// placeholders until [`restamp`]).
pub struct Template {
    pub plan: Arc<PhysicalPlan>,
    pub events: Vec<TraceEvent>,
}

/// Captured templates of the six-workload mix.
pub struct TemplateSet {
    /// Indexed by workload slot, then template rank.
    pub per_workload: Vec<Vec<Template>>,
    /// Zipf sampler over template ranks.
    zipf: Zipf,
}

/// One step of an interleaved replay: event `event` of the query with id
/// `query` replaying template `(slot, rank)`.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub query: usize,
    pub slot: u32,
    pub rank: u32,
    pub event: u32,
}

/// A query of a replay: its id and template.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub query: usize,
    pub slot: u32,
    pub rank: u32,
}

/// Sizing of a capture.
#[derive(Debug, Clone, Copy)]
pub struct CaptureSize {
    pub templates_per_workload: usize,
    pub scale: f64,
}

/// The traffic mix's six workloads (TPC-DS, TPC-H under three physical
/// designs, the two real-world workloads), with their fixed data seeds.
fn mix_specs(size: CaptureSize) -> Vec<WorkloadSpec> {
    let specs = [
        (WorkloadKind::TpcdsLike, 12, None),
        (WorkloadKind::TpchLike, 11, Some(TuningLevel::Untuned)),
        (WorkloadKind::TpchLike, 11, Some(TuningLevel::PartiallyTuned)),
        (WorkloadKind::TpchLike, 11, Some(TuningLevel::FullyTuned)),
        (WorkloadKind::Real1, 13, None),
        (WorkloadKind::Real2, 14, None),
    ];
    specs
        .into_iter()
        .map(|(kind, seed, tuning)| {
            let w = WorkloadSpec::new(kind, seed)
                .with_queries(size.templates_per_workload)
                .with_scale(size.scale);
            match tuning {
                Some(t) => w.with_tuning(t),
                None => w,
            }
        })
        .collect()
}

impl TemplateSet {
    /// Materialize the mix and execute `templates_per_workload` plans of
    /// each workload once, capturing their tapped streams on the delta
    /// wire. `seed` drives execution jitter.
    pub fn capture(seed: u64, size: CaptureSize, tracer: &mut Tracer) -> TemplateSet {
        let mut per_workload = Vec::new();
        for (slot, spec) in mix_specs(size).iter().enumerate() {
            let w = tracer.time("planner.materialize", slot as u64, None, || materialize(spec));
            let catalog = Catalog::new(&w.db, &w.design);
            let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
            let mut templates = Vec::new();
            for (qi, q) in w.queries.iter().take(size.templates_per_workload).enumerate() {
                let plan = builder.build(q).expect("generated queries always plan");
                let (tap, rx) = channel();
                let cfg = ExecConfig {
                    seed: seed ^ ((slot as u64) << 32) ^ qi as u64,
                    // Few retained snapshots bound the events per query.
                    max_snapshots: 16,
                    // Every plan past the baseline snapshot sends deltas.
                    delta_threshold: 1,
                    ..ExecConfig::default()
                };
                let id = ((slot as u64) << 32) | qi as u64;
                tracer.time("engine.run_plan", id, None, || {
                    run_plan_tapped(&catalog, &plan, &cfg, 0, tap);
                });
                let events: Vec<TraceEvent> = rx.try_iter().collect();
                templates.push(Template { plan: Arc::new(plan), events });
            }
            per_workload.push(templates);
        }
        let ranks = size.templates_per_workload.max(1);
        TemplateSet { per_workload, zipf: Zipf::new(ranks, ZIPF_EXPONENT) }
    }

    /// Draw a template as `(slot, rank)`: a workload uniformly, then a
    /// rank by Zipf.
    pub fn draw(&self, rng: &mut StdRng) -> (u32, u32) {
        let slot = rng.random_range(0..self.per_workload.len());
        let rank = self.zipf.sample(rng).min(self.per_workload[slot].len() - 1);
        (slot as u32, rank as u32)
    }

    pub fn template(&self, slot: u32, rank: u32) -> &Template {
        &self.per_workload[slot as usize][rank as usize]
    }

    /// A deterministic interleaving of at least `min_events` events:
    /// `concurrency` queries run side by side, each sending its next event
    /// in round-robin order, and a finished query is replaced by a fresh
    /// one (ids from `first_id` on) drawn by [`Self::draw`]. Returns the
    /// queries in arrival order and the steps; every query is complete.
    pub fn interleave(
        &self,
        rng: &mut StdRng,
        first_id: usize,
        concurrency: usize,
        min_events: usize,
    ) -> (Vec<Arrival>, Vec<Step>) {
        let mut arrivals = Vec::new();
        let mut steps = Vec::with_capacity(min_events + 64);
        let mut next_id = first_id;
        let mut draw = |rng: &mut StdRng, arrivals: &mut Vec<Arrival>| {
            let (slot, rank) = self.draw(rng);
            let a = Arrival { query: next_id, slot, rank };
            next_id += 1;
            arrivals.push(a);
            (a, 0u32)
        };
        let mut active: Vec<Option<(Arrival, u32)>> =
            (0..concurrency.max(1)).map(|_| Some(draw(rng, &mut arrivals))).collect();
        while active.iter().any(Option::is_some) {
            for cell in active.iter_mut() {
                let Some((a, next)) = cell else { continue };
                let len = self.template(a.slot, a.rank).events.len() as u32;
                if *next < len {
                    steps.push(Step { query: a.query, slot: a.slot, rank: a.rank, event: *next });
                    *next += 1;
                }
                if *next >= len {
                    *cell = (steps.len() < min_events).then(|| draw(rng, &mut arrivals));
                }
            }
        }
        (arrivals, steps)
    }
}

/// Inverse-CDF Zipf sampler over ranks `0..n` (rank 0 most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|r| {
                acc += 1.0 / (r as f64).powf(exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The virtual time an event publishes as `status(q).time`, or `None` for
/// an unstamped `Thinned` event.
pub fn stamp(ev: &TraceEvent) -> Option<f64> {
    match ev {
        TraceEvent::Snapshot { snapshot, .. } => Some(snapshot.time),
        TraceEvent::Delta { time, .. } => Some(*time),
        TraceEvent::Finished { total_time, .. } => Some(*total_time),
        TraceEvent::Thinned { .. } => None,
    }
}

/// Re-stamp a template event for replay under `query` at wall time `wall`.
pub fn restamp(ev: &TraceEvent, query: usize, wall: f64) -> TraceEvent {
    match ev {
        TraceEvent::Snapshot { seq, snapshot, windows, .. } => TraceEvent::Snapshot {
            query,
            seq: *seq,
            wall,
            snapshot: snapshot.clone(),
            windows: windows.clone(),
        },
        TraceEvent::Delta { seq, time, changes, window_updates, .. } => TraceEvent::Delta {
            query,
            seq: *seq,
            wall,
            time: *time,
            changes: changes.clone(),
            window_updates: window_updates.clone(),
        },
        TraceEvent::Thinned { .. } => TraceEvent::Thinned { query },
        TraceEvent::Finished { windows, total_time, .. } => {
            TraceEvent::Finished { query, wall, windows: windows.clone(), total_time: *total_time }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(8, ZIPF_EXPONENT);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 8];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[7], "{counts:?}");
    }
}
